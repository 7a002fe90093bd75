package compact

import (
	"testing"
	"testing/quick"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// makeInstance builds an n-cell instance with k items at random positions
// (values 100+j for the j-th item by position) and returns the machine
// plus region bases.
func makeInstance(t *testing.T, model machine.Model, seed uint64, n, k int) (*machine.Machine, int, int, map[machine.Word]bool) {
	t.Helper()
	m := machine.New(model, 4*n+1024, machine.WithSeed(seed))
	flags := m.Alloc(n)
	vals := m.Alloc(n)
	s := xrand.NewStream(seed ^ 0xabc)
	perm := s.Perm(n)
	want := make(map[machine.Word]bool, k)
	for j := 0; j < k; j++ {
		p := perm[j]
		m.SetWord(flags+p, 1)
		v := machine.Word(100 + j)
		m.SetWord(vals+p, v)
		want[v] = true
	}
	return m, flags, vals, want
}

func checkResult(t *testing.T, m *machine.Machine, res Result, n, k int, want map[machine.Word]bool) {
	t.Helper()
	// Result.OutLen's bound: 14k-4 for k >= 2 (4k+16 at k = 1, where
	// one segment spans the stage).
	if limit := max(14*k-4, 4*k+16); res.OutLen > limit {
		t.Errorf("output size %d exceeds %d for k=%d", res.OutLen, limit, k)
	}
	got := make(map[machine.Word]bool)
	occupied := 0
	for i := 0; i < res.OutLen; i++ {
		v := m.Word(res.Out + i)
		if v == Empty {
			continue
		}
		occupied++
		if got[v] {
			t.Fatalf("duplicate value %d in output", v)
		}
		got[v] = true
	}
	if occupied != k {
		t.Fatalf("output holds %d items, want %d", occupied, k)
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("item %d missing from output", v)
		}
	}
	// Pos entries must point at the item's private cell.
	seen := make(map[machine.Word]bool)
	for i := 0; i < n; i++ {
		p := m.Word(res.Pos + i)
		if p < 0 {
			continue
		}
		if p >= machine.Word(res.OutLen) {
			t.Fatalf("pos[%d] = %d out of range", i, p)
		}
		if seen[p] {
			t.Fatalf("two items share output cell %d", p)
		}
		seen[p] = true
	}
	if len(seen) != k {
		t.Fatalf("%d pos entries, want %d", len(seen), k)
	}
}

func TestLinearCompactBasic(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{16, 4}, {100, 10}, {1000, 100}, {1000, 1000}, {4096, 64},
		// Compaction targets of the load balancer's stages (the sizes
		// its pointer-array width bound rests on).
		{2, 2}, {61, 2}, {64, 8}, {1000, 86}, {4096, 344}, {4096, 2048}, {4096, 4096},
	} {
		m, flags, vals, want := makeInstance(t, machine.QRQW, uint64(tc.n*7+tc.k), tc.n, tc.k)
		res, err := LinearCompact(m, flags, vals, tc.n, tc.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		checkResult(t, m, res, tc.n, tc.k, want)
	}
}

func TestLinearCompactZeroItems(t *testing.T) {
	m := machine.New(machine.QRQW, 256)
	flags := m.Alloc(16)
	vals := m.Alloc(16)
	res, err := LinearCompact(m, flags, vals, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutLen != 0 || res.Placed != 0 {
		t.Errorf("empty instance: %+v", res)
	}
	for i := 0; i < 16; i++ {
		if m.Word(res.Pos+i) != -1 {
			t.Error("pos should be -1 everywhere")
		}
	}
}

func TestLinearCompactProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw%800) + 2
		k := int(kRaw)%n + 1
		m := machine.New(machine.QRQW, 4*n+1024, machine.WithSeed(seed))
		flags := m.Alloc(n)
		vals := m.Alloc(n)
		s := xrand.NewStream(seed)
		perm := s.Perm(n)
		for j := 0; j < k; j++ {
			m.SetWord(flags+perm[j], 1)
			m.SetWord(vals+perm[j], machine.Word(j)+5)
		}
		res, err := LinearCompact(m, flags, vals, n, k)
		if err != nil {
			return false
		}
		cnt := 0
		for i := 0; i < res.OutLen; i++ {
			if m.Word(res.Out+i) != Empty {
				cnt++
			}
		}
		return cnt == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLinearCompactSublogarithmicTime(t *testing.T) {
	// The QRQW linear compaction must beat the Theta(lg n) EREW pack in
	// charged time for large n with k << n. (The constant-factor
	// crossover sits near n = 2^13; see EXPERIMENTS.md.)
	for _, lgn := range []int{14, 16} {
		n := 1 << uint(lgn)
		k := n / 64
		m, flags, vals, _ := makeInstance(t, machine.QRQW, uint64(lgn), n, k)
		before := m.Stats()
		if _, err := LinearCompact(m, flags, vals, n, k); err != nil {
			t.Fatal(err)
		}
		qt := m.Stats().Sub(before).Time

		m2, flags2, vals2, _ := makeInstance(t, machine.EREW, uint64(lgn), n, k)
		before2 := m2.Stats()
		if _, err := EREWCompact(m2, flags2, vals2, n, k); err != nil {
			t.Fatal(err)
		}
		et := m2.Stats().Sub(before2).Time
		if qt >= et {
			t.Errorf("n=%d: QRQW linear compaction time %d !< EREW pack time %d", n, qt, et)
		}
	}
}

func TestEREWCompact(t *testing.T) {
	n, k := 300, 25
	m, flags, vals, want := makeInstance(t, machine.EREW, 77, n, k)
	out, err := EREWCompact(m, flags, vals, n, k)
	if err != nil {
		t.Fatal(err)
	}
	if m.Err() != nil {
		t.Fatalf("EREW violation: %v", m.Err())
	}
	for i := 0; i < k; i++ {
		if !want[m.Word(out+i)] {
			t.Fatalf("unexpected value %d", m.Word(out+i))
		}
	}
}

func TestEREWCompactWrongK(t *testing.T) {
	m := machine.New(machine.EREW, 256)
	flags := m.Alloc(8)
	vals := m.Alloc(8)
	m.SetWord(flags+2, 1)
	if _, err := EREWCompact(m, flags, vals, 8, 3); err == nil {
		t.Error("EREWCompact should reject a wrong k")
	}
}

func TestSqrtLog(t *testing.T) {
	if sqrtLog(1) != 1 || sqrtLog(2) != 1 {
		t.Error("tiny n")
	}
	if f := sqrtLog(1 << 16); f != 4 {
		t.Errorf("sqrtLog(2^16) = %d, want 4", f)
	}
	if f := sqrtLog(1 << 17); f*f < 17 || (f-1)*(f-1) >= 17 {
		t.Errorf("sqrtLog(2^17) = %d", f)
	}
}

func TestLinearCompactWorkBound(t *testing.T) {
	// Work is O(n + k*2^f): check it stays within the documented bound.
	n := 1 << 14
	k := n / 16
	m, flags, vals, _ := makeInstance(t, machine.QRQW, 5, n, k)
	before := m.Stats()
	if _, err := LinearCompact(m, flags, vals, n, k); err != nil {
		t.Fatal(err)
	}
	ops := m.Stats().Sub(before).Ops
	f := sqrtLog(n)
	g := (3*f + 1) / 2
	stage := prim.NextPow2(2*g*k) << uint(f)
	bound := int64(20*n + 15*stage)
	if ops > bound {
		t.Errorf("ops = %d exceeds documented bound %d", ops, bound)
	}
}

func TestLinearCompactOnSIMDModelRuns(t *testing.T) {
	// The algorithm issues multiple ops per step, so it is *not*
	// SIMD-legal; it must run on QRQW and CRQW though.
	for _, model := range []machine.Model{machine.QRQW, machine.CRQW, machine.CRCW} {
		m, flags, vals, want := makeInstance(t, model, 13, 200, 20)
		res, err := LinearCompact(m, flags, vals, 200, 20)
		if err != nil {
			t.Fatalf("%v: %v", model, err)
		}
		checkResult(t, m, res, 200, 20, want)
	}
}

func TestRelocatePreservesData(t *testing.T) {
	m := machine.New(machine.QRQW, 64)
	keep := m.Alloc(2)
	m.SetWord(keep, 11)
	mark := m.Mark()
	m.Alloc(8) // scratch
	src := m.Alloc(4)
	m.Store(src, []machine.Word{1, 2, 3, 4})
	dst := relocate(m, mark, src, 4)
	if dst != mark {
		t.Errorf("dst = %d, want %d", dst, mark)
	}
	got := m.LoadWords(dst, 4)
	for i, w := range []machine.Word{1, 2, 3, 4} {
		if got[i] != w {
			t.Fatalf("relocated = %v", got)
		}
	}
	if m.Word(keep) != 11 {
		t.Error("relocate clobbered retained data")
	}
}

func TestLinearCompactTimeGrowsSlowly(t *testing.T) {
	// Time should grow like sqrt(lg n) (plus constants): quadrupling n
	// must not double the time.
	times := map[int]int64{}
	for _, lgn := range []int{10, 14} {
		n := 1 << uint(lgn)
		k := n / 32
		m, flags, vals, _ := makeInstance(t, machine.QRQW, 3, n, k)
		before := m.Stats()
		if _, err := LinearCompact(m, flags, vals, n, k); err != nil {
			t.Fatal(err)
		}
		times[lgn] = m.Stats().Sub(before).Time
	}
	if times[14] > 2*times[10] {
		t.Errorf("time grew too fast: lg=10 -> %d, lg=14 -> %d", times[10], times[14])
	}
	_ = prim.ILog2 // keep import if bounds change
}

// TestLinearCompactWords checks the size functions against a run:
// LinearCompactWords is the allocation peak, OutLen the result's
// output length, and n + OutLen words stay allocated on return.
func TestLinearCompactWords(t *testing.T) {
	for _, n := range []int{1, 2, 100, 1024, 4096} {
		for _, k := range []int{0, 1, 2, n / 64, n / 2, n} {
			if k > n {
				continue
			}
			m := machine.New(machine.QRQW, 0, machine.WithSeed(uint64(n+k)))
			flags := m.Alloc(n)
			vals := m.Alloc(n)
			for i := 0; i < k; i++ {
				m.SetWord(flags+i*(n/max(k, 1)), 1)
			}
			base := m.Allocated()
			res, err := LinearCompact(m, flags, vals, n, k)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.PeakAllocated()-base, LinearCompactWords(n, k); got != want {
				t.Errorf("n=%d k=%d: peak %d words, LinearCompactWords %d", n, k, got, want)
			}
			if res.OutLen != OutLen(n, k) || m.Allocated()-base != n+res.OutLen {
				t.Errorf("n=%d k=%d: OutLen %d (OutLen() %d), %d words held, want n+OutLen", n, k, res.OutLen, OutLen(n, k), m.Allocated()-base)
			}
		}
	}
}
