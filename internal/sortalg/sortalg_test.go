package sortalg

import (
	"sort"
	"testing"
	"testing/quick"

	"lowcontend/internal/fattree"
	"lowcontend/internal/machine"
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

func TestSampleSortQRQW(t *testing.T) {
	for _, n := range []int{1, 2, 50, 64, 500, 3000} {
		s := xrand.NewStream(uint64(n) * 7)
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(1<<20) - 1<<19)
		}
		m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(uint64(n)))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := SampleSortQRQW(m, keys, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSorted(t, m, keys, n, vals)
	}
}

func TestSampleSortProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%800) + 1
		s := xrand.NewStream(seed)
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(100)) // many duplicates
		}
		m := machine.New(machine.QRQW, 1<<17, machine.WithSeed(seed))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := SampleSortQRQW(m, keys, n); err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if m.Word(keys+i) < m.Word(keys+i-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestIntegerSortCRQW(t *testing.T) {
	for _, n := range []int{2, 100, 1000} {
		s := xrand.NewStream(uint64(n) + 11)
		maxKey := machine.Word(n * 16)
		vals := make([]machine.Word, n)
		for i := range vals {
			vals[i] = machine.Word(s.Intn(int(maxKey)))
		}
		m := machine.New(machine.CRQW, 1<<17, machine.WithSeed(uint64(n)))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := IntegerSortCRQW(m, keys, n, maxKey); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		assertSorted(t, m, keys, n, vals)
	}
}

func TestIntegerSortRejectsQRQW(t *testing.T) {
	m := machine.New(machine.QRQW, 4096)
	keys := m.Alloc(4)
	if err := IntegerSortCRQW(m, keys, 4, 16); err == nil {
		t.Error("QRQW model should be rejected (needs free concurrent reads)")
	}
}

func TestEmulateFetchAddMatchesNative(t *testing.T) {
	s := xrand.NewStream(21)
	n := 200
	tgtLen := 16
	reqs := make([]FAReq, n)
	for i := range reqs {
		reqs[i] = FAReq{Addr: s.Intn(tgtLen), Delta: machine.Word(s.Intn(10))}
	}
	// Native reference on the FetchAdd machine.
	ref := machine.New(machine.FetchAdd, tgtLen+8)
	tgtRef := ref.Alloc(tgtLen)
	ops := make([]machine.FAOp, n)
	for i, r := range reqs {
		ops[i] = machine.FAOp{Addr: tgtRef + r.Addr, Delta: r.Delta}
	}
	wantOld, err := ref.FetchAddStep(ops)
	if err != nil {
		t.Fatal(err)
	}
	// Emulation on CRQW.
	m := machine.New(machine.CRQW, 1<<15, machine.WithSeed(8))
	tgt := m.Alloc(tgtLen)
	gotOld, err := EmulateFetchAdd(m, reqs, tgt, tgtLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if gotOld[i] != wantOld[i] {
			t.Fatalf("req %d: fetched %d, want %d", i, gotOld[i], wantOld[i])
		}
	}
	for a := 0; a < tgtLen; a++ {
		if m.Word(tgt+a) != ref.Word(tgtRef+a) {
			t.Fatalf("cell %d: %d vs %d", a, m.Word(tgt+a), ref.Word(tgtRef+a))
		}
	}
}

func TestEmulateFetchAddEmpty(t *testing.T) {
	m := machine.New(machine.CRQW, 64)
	tgt := m.Alloc(4)
	out, err := EmulateFetchAdd(m, nil, tgt, 4)
	if err != nil || out != nil {
		t.Errorf("out=%v err=%v", out, err)
	}
	if _, err := EmulateFetchAdd(m, []FAReq{{Addr: 9}}, tgt, 4); err == nil {
		t.Error("out-of-range address should fail")
	}
}

func TestFatTreeSearch(t *testing.T) {
	// Splitters 10,20,...,70 (s=8 leaves -> 7 splitters in implicit
	// layout); keys route to buckets = number of splitters < key... the
	// bucket of key k must satisfy: all splitters left of bucket <= k.
	m := machine.New(machine.QRQW, 1<<14, machine.WithSeed(2))
	s := 8
	spl := m.Alloc(s) // s-1 used
	for i := 0; i < s-1; i++ {
		m.SetWord(spl+i, machine.Word(10*(i+1)))
	}
	m.SetWord(spl+s-1, 1<<40) // sentinel; unused by layout
	ft, err := fattree.Build(m, spl, s, 64)
	if err != nil {
		t.Fatal(err)
	}
	n := 100
	keys := m.Alloc(n)
	path := m.Alloc(n)
	str := xrand.NewStream(3)
	want := make([]int, n)
	for i := 0; i < n; i++ {
		k := str.Intn(80)
		m.SetWord(keys+i, machine.Word(k))
		b := 0
		for b < s-1 && 10*(b+1) <= k {
			b++
		}
		want[i] = b
	}
	if err := ft.Search(keys, path, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := int(m.Word(path + i)); got != want[i] {
			t.Fatalf("key %d routed to %d, want %d", m.Word(keys+i), got, want[i])
		}
	}
	if ft.Levels() != 3 {
		t.Errorf("levels = %d", ft.Levels())
	}
}

func TestSegmentedBitonic(t *testing.T) {
	m := machine.New(machine.QRQW, 4096, machine.WithSeed(4))
	segs, blk := 5, 8
	base := m.Alloc(segs * blk)
	s := xrand.NewStream(17)
	vals := make([][]machine.Word, segs)
	for g := 0; g < segs; g++ {
		vals[g] = make([]machine.Word, blk)
		for i := range vals[g] {
			vals[g][i] = machine.Word(s.Intn(100))
			m.SetWord(base+g*blk+i, vals[g][i])
		}
	}
	if err := prim.BitonicSegments(m, base, -1, segs*blk, blk, "ssort/bitonic"); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < segs; g++ {
		ws := append([]machine.Word(nil), vals[g]...)
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for i := 0; i < blk; i++ {
			if m.Word(base+g*blk+i) != ws[i] {
				t.Fatalf("segment %d not sorted: %v", g, m.LoadWords(base+g*blk, blk))
			}
		}
	}
}
