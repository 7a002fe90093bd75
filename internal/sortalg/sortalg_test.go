package sortalg

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

func assertSorted(t *testing.T, m *machine.Machine, keys, n int, want []machine.Word) {
	t.Helper()
	ws := append([]machine.Word(nil), want...)
	sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
	for i := 0; i < n; i++ {
		if got := m.Word(keys + i); got != ws[i] {
			t.Fatalf("cell %d = %d, want %d (out=%v)", i, got, ws[i], m.LoadWords(keys, prim.Min(n, 40)))
		}
	}
}

func TestDistributiveSort(t *testing.T) {
	for _, n := range []int{2, 10, 300, 2000} {
		s := xrand.NewStream(uint64(n))
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Uint64n(1 << 30))
		}
		m := machine.New(machine.QRQW, 1<<17, machine.WithSeed(uint64(n)+3))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := DistributiveSort(m, keys, n, 1<<30); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSorted(t, m, keys, n, vals)
	}
}

func TestDistributiveSortLogTime(t *testing.T) {
	n := 1 << 13
	s := xrand.NewStream(99)
	m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(5))
	keys := m.Alloc(n)
	for i := 0; i < n; i++ {
		m.SetWord(keys+i, machine.Word(s.Uint64n(1<<40)))
	}
	if err := DistributiveSort(m, keys, n, 1<<40); err != nil {
		t.Fatal(err)
	}
	lg := int64(prim.CeilLog2(n))
	if tm := m.Stats().Time; tm > 60*lg {
		t.Errorf("time %d not O(lg n) (lg=%d)", tm, lg)
	}
}

func TestDistributiveSortRejectsOutOfRange(t *testing.T) {
	m := machine.New(machine.QRQW, 4096)
	keys := m.Alloc(4)
	m.SetWord(keys, 100)
	if err := DistributiveSort(m, keys, 4, 50); err == nil {
		t.Error("out-of-range key should fail")
	}
}

// sortBucketsScalar is the reference for sortBuckets: the dsort/seq
// step as a ParDo body recording element Reads and Writes only.
func sortBucketsScalar(m *machine.Machine, in multicompact.Input, bvals int) error {
	return m.ParDoL(in.NSets, "dsort/seq", func(c *machine.Ctx, j int) {
		ptr := int(c.Read(in.Ptrs + j))
		cnt := int(c.Read(in.Counts + j))
		if cnt == 0 {
			return
		}
		vals := make([]machine.Word, 0, cnt)
		for k := range 4 * cnt {
			if v := c.Read(bvals + ptr + k); v != 0 {
				vals = append(vals, v-1)
			}
		}
		insertionSort(vals)
		c.Compute(cnt * prim.Max(1, prim.CeilLog2(cnt+1)))
		for k, v := range vals {
			c.Write(bvals+ptr+k, v+1)
		}
		for k := len(vals); k < 4*cnt; k++ {
			c.Write(bvals+ptr+k, 0)
		}
	})
}

// bucketState lays out the memory DistributiveSort's dsort/seq step
// starts from: n uniform keys labelled into n/lg n buckets, and each key
// (plus one) in a random private cell of its bucket's 4*cnt-cell
// subarray of bvals.
func bucketState(m *machine.Machine, n int, seed uint64) (multicompact.Input, int) {
	const maxKey = 1 << 30
	lgn := prim.Max(2, prim.CeilLog2(n))
	buckets := prim.Max(1, n/lgn)
	rng := xrand.NewStream(seed)
	keys := make([]machine.Word, n)
	labels := make([]int, n)
	for i := range keys {
		keys[i] = machine.Word(rng.Intn(maxKey))
		labels[i] = int(keys[i]) * buckets / maxKey
	}
	in, err := multicompact.BuildInput(m, labels, buckets)
	if err != nil {
		panic(err)
	}
	bvals := m.Alloc(in.BLen)
	free := make([][]int, buckets)
	for j := range free {
		cnt := int(m.Word(in.Counts + j))
		free[j] = rng.Perm(4 * cnt)
	}
	for i, l := range labels {
		cell := free[l][0]
		free[l] = free[l][1:]
		m.SetWord(bvals+int(m.Word(in.Ptrs+l))+cell, keys[i]+1)
	}
	return in, bvals
}

// TestSortBucketsMatchesScalar pins the dsort/seq Bulk step to its
// element-by-element ParDo reference under all nine models, with and
// without hot-cell attribution: same Stats, traces (hot cells
// included), final memory and error.
func TestSortBucketsMatchesScalar(t *testing.T) {
	type outcome struct {
		st         machine.Stats
		trace, err string
		mem        []machine.Word
	}
	for _, n := range []int{64, 1024, 4096} {
		for model := machine.EREW; model <= machine.ScanQRQW; model++ {
			for _, hotK := range []int{0, 4} {
				run := func(step func(*machine.Machine, multicompact.Input, int) error) outcome {
					m := machine.New(model, 1<<16, machine.WithHotCells(hotK))
					in, bvals := bucketState(m, n, uint64(n))
					var o outcome
					if err := step(m, in, bvals); err != nil {
						o.err = err.Error()
					}
					o.st = m.Stats()
					o.trace = fmt.Sprintf("%+v", m.StepTraces())
					o.mem = m.LoadWords(0, m.Allocated())
					return o
				}
				got, want := run(sortBuckets), run(sortBucketsScalar)
				name := fmt.Sprintf("n=%d %v hotK=%d", n, model, hotK)
				if got.err != want.err || got.st != want.st || got.trace != want.trace {
					t.Errorf("%s:\n got err %q stats %+v\n trace %s\nwant err %q stats %+v\n trace %s",
						name, got.err, got.st, got.trace, want.err, want.st, want.trace)
				}
				if !slices.Equal(got.mem, want.mem) {
					t.Errorf("%s: memory differs", name)
				}
			}
		}
	}
}
