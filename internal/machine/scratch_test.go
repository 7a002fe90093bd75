package machine

import (
	"fmt"
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

// TestScratchFootprint pins the contention scratch at one byte per
// covered word and access kind: a step whose highest touched address is
// 1<<20 leases 2 B per word of [0, 1<<20], plus slack.
func TestScratchFootprint(t *testing.T) {
	const hi = 1 << 20
	m := New(QRQW, hi+1)
	defer m.Free()
	// A first step takes the step buffers from the pool; the lease under
	// test is then the step's only sizeable allocation.
	if err := m.ParDo(1, func(c *Ctx, i int) { c.Write(0, 1) }); err != nil {
		t.Fatal(err)
	}
	idleScratch()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := m.ParDo(1, func(c *Ctx, i int) { c.Write(hi, 1) }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*(hi+1)+64<<10); got >= limit {
		t.Errorf("a step touching address 1<<20 allocated %d B, want < %d (2 B/word plus slack)", got, limit)
	}
	if got := idleScratch(); !slices.Equal(got, []int{hi + 1}) {
		t.Errorf("idle scratch lengths %v, want [%d]", got, hi+1)
	}
	checkScratchZero(t)
}

// TestContentionByteBoundary covers counts around the byte counters'
// 255 limit: a step whose hottest read cell, write cell, or both-kinds
// cell has 254, 255, 256 or 300 accessors, alone or tied with a second
// cell (the first to reach the count at the larger address), settles
// to the exact Stats, kappa arg-max, hot cells and EREW violation; the
// overflow table is made only on a count above 255.
func TestContentionByteBoundary(t *testing.T) {
	const own = 2000 // processor i's uncontended cell is own+i
	const reads, writes, both = "reads", "writes", "both"
	for _, model := range []Model{QRQW, CRCW, EREW} {
		for _, kind := range []string{reads, writes, both} {
			for _, k := range []int{254, 255, 256, 300} {
				for _, tie := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/k=%d/tie=%v", model, kind, k, tie)
					t.Run(name, func(t *testing.T) {
						// Processors [0, k) hit the hot cell; with a tie,
						// processors [k, 2k) hit a second one at a lower
						// address, which the arg-max must name.
						p, hot, argmax := k, 1000, 1000
						if tie {
							p, argmax = 2*k, 600
						}
						target := func(i int) int {
							if i < k {
								return hot
							}
							return argmax
						}
						m := New(model, 4096, WithTrace(), WithHotCells(2))
						defer m.Free()
						idleScratch()
						err := m.ParDo(p, func(c *Ctx, i int) {
							switch kind {
							case reads:
								c.Read(target(i))
								c.Write(own+i, 1)
							case writes:
								c.Read(own + i)
								c.Write(target(i), 1)
							case both:
								c.Read(target(i))
								c.Write(target(i), 1)
							}
						})
						w := m.wk
						if kind != writes && w.maxRAddr != argmax || kind != reads && w.maxWAddr != argmax {
							t.Errorf("kappa arg-max read %d, write %d; want %d", w.maxRAddr, w.maxWAddr, argmax)
						}
						checkSpill(t, k > 255)
						checkScratchZero(t)
						if model == EREW {
							want := &ViolationError{Model: EREW, Step: 1, Kind: "concurrent-read", Addr: argmax, Count: int64(k)}
							if kind == writes {
								want.Kind = "concurrent-write"
							}
							if !reflect.DeepEqual(err, want) {
								t.Fatalf("error %v, want %v", err, want)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						cost := int64(k)
						if model == CRCW {
							cost = 1
						}
						want := Stats{Steps: 1, Time: cost, Ops: int64(2 * p), PTWork: int64(p) * cost,
							ReadOps: int64(p), WriteOps: int64(p), MaxContention: int64(k),
							SumContention: int64(k), MaxProcs: int64(p)}
						if got := m.Stats(); got != want {
							t.Errorf("stats %+v, want %+v", got, want)
						}
						cell := func(a int, r, w int64) HotCell {
							return HotCell{Addr: a, Reads: r, Writes: w}
						}
						n := int64(k)
						var hotWant []HotCell
						switch kind {
						case reads:
							hotWant = []HotCell{cell(argmax, n, 0), cell(own, 0, 1)}
							if tie {
								hotWant[1] = cell(hot, n, 0)
							}
						case writes:
							hotWant = []HotCell{cell(argmax, 0, n), cell(own, 1, 0)}
							if tie {
								hotWant[1] = cell(hot, 0, n)
							}
						case both:
							hotWant = []HotCell{cell(argmax, n, n)}
							if tie {
								hotWant = append(hotWant, cell(hot, n, n))
							}
						}
						if got := m.StepTraces()[0].HotCells; !slices.Equal(got, hotWant) {
							t.Errorf("hot cells %v, want %v", got, hotWant)
						}
					})
				}
			}
		}
	}
}

// checkSpill fails t unless the one idle contention scratch has an
// overflow table exactly when want says a count passed 255.
func checkSpill(t *testing.T, want bool) {
	t.Helper()
	f := &scratchFree
	f.Lock()
	defer f.Unlock()
	if len(f.list) != 1 {
		t.Fatalf("%d idle scratch, want 1", len(f.list))
	}
	if got := f.list[0].spill != nil; got != want {
		t.Errorf("overflow table made: %v, want %v", got, want)
	}
}

// TestContentionSpillReused: once a lease has made its overflow table,
// later steps that overflow again reuse it, so a contended untraced
// step stays allocation-free.
func TestContentionSpillReused(t *testing.T) {
	m := New(QRQW, 512)
	defer m.Free()
	idleScratch()
	body := func(c *Ctx, i int) {
		c.Read(7)
		c.Write(9, Word(i))
	}
	if avg := testing.AllocsPerRun(20, func() {
		if err := m.ParDo(300, body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("an overflowing untraced step allocates %.1f objects/step, want 0", avg)
	}
	if st := m.Stats(); st.MaxContention != 300 {
		t.Errorf("max contention %d, want 300", st.MaxContention)
	}
	checkSpill(t, true)
	checkScratchZero(t)
}

// BenchmarkSettleContended measures a contended scalar step shaped like
// the multiple-compaction throw: p processors each read their own cell
// and two random cells of a 4p-word region, writing a random cell when
// it reads zero. It reports host ns per charged PRAM op.
func BenchmarkSettleContended(b *testing.B) {
	const p = 1 << 16
	m := New(QRQW, 5*p, WithSeed(1))
	defer m.Free()
	body := func(c *Ctx, i int) {
		if c.Read(i) != 0 {
			return
		}
		r := c.Rand()
		for range 2 {
			if t := p + r.Intn(4*p); c.Read(t) == 0 {
				c.Write(t, Word(i)+1)
			}
		}
	}
	var ops int64 // per step; the same every iteration
	run := func() {
		if err := m.ParDoL(p, "throw", body); err != nil {
			b.Fatal(err)
		}
		ops = m.Stats().Ops
	}
	run() // grow the step buffers and lease the scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		m.Reset() // the same memory and random draws every iteration
		b.StartTimer()
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops)/float64(b.N), "ns/pram-op")
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
