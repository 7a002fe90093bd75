package hashing

import (
	"testing"
	"testing/quick"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

func distinctKeys(seed uint64, n int) []machine.Word {
	s := xrand.NewStream(seed)
	seen := make(map[machine.Word]bool, n)
	out := make([]machine.Word, 0, n)
	for len(out) < n {
		k := machine.Word(s.Uint64n(1 << 30))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func buildTable(t *testing.T, seed uint64, n int) (*machine.Machine, *Table, []machine.Word) {
	t.Helper()
	m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(seed))
	keys := distinctKeys(seed^0x55, n)
	base := m.Alloc(n)
	m.Store(base, keys)
	tb, err := Build(m, base, n)
	if err != nil {
		t.Fatalf("Build(n=%d): %v", n, err)
	}
	return m, tb, keys
}

func TestMulMod(t *testing.T) {
	cases := []struct{ a, b uint64 }{
		{0, 0}, {1, 1}, {q - 1, q - 1}, {q - 1, 2}, {12345, 67890},
		{1 << 60, 1 << 60}, {q, 5},
	}
	for _, c := range cases {
		want := new128Mod(c.a%q, c.b%q)
		if got := mulMod(c.a, c.b); got != want {
			t.Errorf("mulMod(%d,%d) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

// new128Mod is a slow reference: repeated addition mod q in big steps.
func new128Mod(a, b uint64) uint64 {
	r := uint64(0)
	for b > 0 {
		if b&1 == 1 {
			r = (r + a) % q
		}
		a = (a * 2) % q
		b >>= 1
	}
	return r
}

func TestPolyEvalLinear(t *testing.T) {
	// coeff = [b, a] evaluates a*x + b.
	coeff := []machine.Word{7, 3}
	if got := polyEval(coeff, 10, 1000); got != 37 {
		t.Errorf("polyEval = %d, want 37", got)
	}
}

func TestBuildAndLookupPositive(t *testing.T) {
	for _, n := range []int{8, 64, 500} {
		m, tb, keys := buildTable(t, uint64(n)+1, n)
		qBase := m.Alloc(n)
		out := m.Alloc(n)
		m.Store(qBase, keys)
		if err := tb.Lookup(qBase, out, n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if m.Word(out+i) != 1 {
				t.Fatalf("n=%d: key %d not found", n, keys[i])
			}
		}
	}
}

func TestLookupNegative(t *testing.T) {
	n := 200
	m, tb, keys := buildTable(t, 9, n)
	seen := make(map[machine.Word]bool)
	for _, k := range keys {
		seen[k] = true
	}
	s := xrand.NewStream(1234)
	qs := make([]machine.Word, n)
	for i := range qs {
		for {
			k := machine.Word(s.Uint64n(1 << 30))
			if !seen[k] {
				qs[i] = k
				break
			}
		}
	}
	qBase := m.Alloc(n)
	out := m.Alloc(n)
	m.Store(qBase, qs)
	if err := tb.Lookup(qBase, out, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if m.Word(out+i) != 0 {
			t.Fatalf("absent key %d reported present", qs[i])
		}
	}
}

func TestLookupMixedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		n := 100
		m := machine.New(machine.QRQW, 1<<17, machine.WithSeed(seed))
		keys := distinctKeys(seed, n)
		base := m.Alloc(n)
		m.Store(base, keys)
		tb, err := Build(m, base, n)
		if err != nil {
			return false
		}
		present := make(map[machine.Word]bool)
		for _, k := range keys {
			present[k] = true
		}
		s := xrand.NewStream(seed ^ 1)
		qs := make([]machine.Word, n)
		want := make([]machine.Word, n)
		for i := range qs {
			if s.Uint64()&1 == 1 {
				qs[i] = keys[s.Intn(n)]
				want[i] = 1
			} else {
				k := machine.Word(s.Uint64n(1 << 30))
				qs[i] = k
				if present[k] {
					want[i] = 1
				}
			}
		}
		qBase := m.Alloc(n)
		out := m.Alloc(n)
		m.Store(qBase, qs)
		if err := tb.Lookup(qBase, out, n); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if m.Word(out+i) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBuildTimeLogarithmic(t *testing.T) {
	for _, lgn := range []int{10, 12} {
		n := 1 << uint(lgn)
		m := machine.New(machine.QRQW, 1<<20, machine.WithSeed(uint64(lgn)))
		keys := distinctKeys(uint64(lgn)+100, n)
		base := m.Alloc(n)
		m.Store(base, keys)
		if _, err := Build(m, base, n); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Time > int64(80*lgn) {
			t.Errorf("n=2^%d: build time %d not O(lg n)", lgn, st.Time)
		}
	}
}

func TestLookupSublogarithmic(t *testing.T) {
	n := 1 << 12
	m, tb, keys := buildTable(t, 77, n)
	qBase := m.Alloc(n)
	out := m.Alloc(n)
	m.Store(qBase, keys)
	before := m.Stats()
	if err := tb.Lookup(qBase, out, n); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Sub(before)
	lg := int64(prim.CeilLog2(n))
	if d.Time > 6*lg {
		t.Errorf("lookup time %d not O(lg n/lg lg n)-ish (lg=%d)", d.Time, lg)
	}
}

func TestEREWMembership(t *testing.T) {
	n := 128
	m := machine.New(machine.EREW, 1<<15, machine.WithSeed(5))
	keys := distinctKeys(42, n)
	kb := m.Alloc(n)
	m.Store(kb, keys)
	nq := 64
	qb := m.Alloc(nq)
	out := m.Alloc(nq)
	want := make([]machine.Word, nq)
	s := xrand.NewStream(31)
	for i := 0; i < nq; i++ {
		if i%2 == 0 {
			m.SetWord(qb+i, keys[s.Intn(n)])
			want[i] = 1
		} else {
			m.SetWord(qb+i, machine.Word(1<<30)+machine.Word(i)) // outside key range
		}
	}
	if err := EREWMembership(m, kb, n, qb, out, nq); err != nil {
		t.Fatal(err)
	}
	if m.Err() != nil {
		t.Fatalf("EREW violation: %v", m.Err())
	}
	for i := 0; i < nq; i++ {
		if m.Word(out+i) != want[i] {
			t.Fatalf("query %d: got %d want %d", i, m.Word(out+i), want[i])
		}
	}
}

func TestIpow(t *testing.T) {
	if ipow(128, 3, 7) != 8 {
		t.Errorf("ipow(128,3,7) = %d, want 8", ipow(128, 3, 7))
	}
	if ipow(1, 3, 7) != 1 {
		t.Error("ipow(1) != 1")
	}
}

func TestDuplicateRows(t *testing.T) {
	m := machine.New(machine.QRQW, 4096)
	base := m.Alloc(5 * 3)
	m.Store(base, []machine.Word{1, 2, 3})
	if err := duplicateRows(m, base, 3, 5); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		for c := 0; c < 3; c++ {
			if m.Word(base+r*3+c) != machine.Word(c+1) {
				t.Fatalf("row %d col %d = %d", r, c, m.Word(base+r*3+c))
			}
		}
	}
}

func TestDuplicateEach(t *testing.T) {
	m := machine.New(machine.QRQW, 4096)
	base := m.Alloc(3 * 4)
	m.SetWord(base+0*4, 10)
	m.SetWord(base+1*4, 20)
	m.SetWord(base+2*4, 30)
	if err := duplicateEach(m, base, 3, 4); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 3; g++ {
		for i := 0; i < 4; i++ {
			if m.Word(base+g*4+i) != machine.Word(10*(g+1)) {
				t.Fatalf("group %d idx %d = %d", g, i, m.Word(base+g*4+i))
			}
		}
	}
}
