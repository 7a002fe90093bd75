package machine

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// scratchRun is one machine's result in the shared-scratch test.
type scratchRun struct {
	stats    Stats
	mem      []Word
	trace    []StepTrace
	expanded int64 // descriptors settled by expansion
	err      error
}

// runScratchMix drives machine k through a contended mix — random
// scalar reads and writes, an overlapping Bulk step that expands, and
// (odd k) hot-cell profiling — on a memory
// whose size depends on k, so concurrent machines lease, outgrow and
// hand back scratch of different lengths.
func runScratchMix(k int) scratchRun {
	words := 1 << (11 + k%4)
	opts := []Option{WithSeed(uint64(k + 1)), WithTrace()}
	if k%2 == 1 {
		opts = append(opts, WithHotCells(4))
	}
	m := New(QRQW, words, opts...)
	defer m.Free()
	const p = 8192
	run := func() error {
		for range 3 {
			err := m.ParDo(p, func(c *Ctx, i int) {
				r := c.Rand()
				c.Read(r.Intn(words))
				c.Read(i % 7)
				c.Write(r.Intn(words), Word(i))
				if i%512 == 0 {
					a := i % (words / 2)
					c.Write(a, Word(i))
					c.Write(a+words/2, 1)
				}
			})
			if err != nil {
				return err
			}
		}
		// Contended writes, monotone in the processor index.
		err := m.ParDo(p, func(c *Ctx, i int) { c.Write(i*words/p, Word(i)) })
		if err != nil {
			return err
		}
		b := m.Bulk(64, "overlap")
		b.Gather([]int{words - 1, 5, 9, words / 2}, 0)
		b.ReadRange(0, 64, 1, 0, 1)
		b.WriteRange(words/4, 64, 1, 0, 1, b.Vals(64))
		if err := b.Commit(); err != nil {
			return err
		}
		// A small step after the large ones.
		return m.ParDo(100, func(c *Ctx, i int) { c.Write(words-1-i, c.Read(i%3)+1) })
	}
	err := run()
	ex := m.ExecStats()
	return scratchRun{m.Stats(), m.LoadWords(0, words), m.StepTraces(), ex.BulkExpanded, err}
}

// TestScratchSharedAcrossMachines: machines settling concurrently share
// one contention-scratch free list, so their charged stats, memory and
// traces must match the same machines run one at a time, bit for bit.
func TestScratchSharedAcrossMachines(t *testing.T) {
	const K = 4
	var want [K]scratchRun
	for k := range K {
		want[k] = runScratchMix(k)
		if want[k].err != nil {
			t.Fatalf("machine %d: %v", k, want[k].err)
		}
	}
	var got [K]scratchRun
	var wg sync.WaitGroup
	for k := range K {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = runScratchMix(k)
		}()
	}
	wg.Wait()
	for k := range K {
		if !reflect.DeepEqual(got[k], want[k]) {
			t.Errorf("machine %d: concurrent run differs from its sequential run", k)
		}
	}
	if w := want[0]; w.stats.MaxContention < 2 || w.expanded == 0 ||
		w.trace[0].HotCells != nil || want[1].trace[0].HotCells == nil {
		t.Errorf("mix is not contended, expanded and profiled as intended: %+v", w)
	}
	checkScratchZero(t)
}

// TestMachineFootprint pins a machine's per-word cost at its memory
// alone: 8 B/word, with no per-word contention counters held per
// machine.
func TestMachineFootprint(t *testing.T) {
	const words = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(QRQW, words)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*words+64<<10); got >= limit {
		t.Errorf("New(QRQW, 1<<20) allocated %d B, want < %d (8 B/word plus slack)", got, limit)
	}
}

// idleScratch drains the contention-scratch free list and returns the
// lengths it held, so a test can see exactly what its steps leased.
func idleScratch() []int {
	f := &scratchFree
	f.Lock()
	defer f.Unlock()
	var lens []int
	for _, c := range f.list {
		lens = append(lens, len(c.r))
	}
	f.list = nil
	return lens
}

// TestScratchLeaseSizing: a lease spans one past the highest scalar
// address its settlement counts — expanded descriptor cells included —
// never the machine's capacity; a short scratch is replaced by one of
// doubled length; and a step with no scalar entries leases nothing.
func TestScratchLeaseSizing(t *testing.T) {
	m := New(QRQW, 1<<16)
	defer m.Free()
	idleScratch()
	step := func(p int, body func(c *Ctx, i int), want ...int) {
		t.Helper()
		if err := m.ParDo(p, body); err != nil {
			t.Fatal(err)
		}
		if got := idleScratch(); !slices.Equal(got, want) {
			t.Fatalf("idle scratch lengths %v, want %v", got, want)
		}
	}
	step(100, func(c *Ctx, i int) { c.Write(i, 1) }, 100)

	if err := m.ParDo(100, func(c *Ctx, i int) { c.Read(i) }); err != nil {
		t.Fatal(err)
	}
	step(150, func(c *Ctx, i int) { c.Read(i) }, 200)

	b := m.Bulk(16, "fill")
	b.FillRange(5000, 16, 1, 0, 1, 7)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := idleScratch(); len(got) != 0 {
		t.Fatalf("a descriptor-only step leased scratch %v", got)
	}

	// A large scalar step leases up to its highest address.
	step(8192, func(c *Ctx, i int) { c.Write(i, 1) }, 8192)

	// The scatter and the fill share cell 40000, so both expand and the
	// lease reaches it.
	b = m.Bulk(2, "overlap")
	b.Scatter([]int{30000, 40000}, 0, []Word{1, 2})
	b.FillRange(35000, 2, 5000, 0, 1, 3)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := idleScratch(); !slices.Equal(got, []int{40001}) {
		t.Fatalf("idle scratch lengths %v, want [40001]", got)
	}
	if m.ExecStats().BulkExpanded != 2 {
		t.Fatal("the descriptors did not expand")
	}
	checkScratchZero(t)
}
