package multicompact

import (
	"testing"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

func checkPlacement(t *testing.T, m *machine.Machine, in Input, res Result, labels []int) {
	t.Helper()
	seen := make(map[machine.Word]bool)
	for i := 0; i < in.N; i++ {
		p := m.Word(res.Pos + i)
		if p < 0 || p >= machine.Word(in.BLen) {
			t.Fatalf("item %d: pos %d out of range", i, p)
		}
		if seen[p] {
			t.Fatalf("two items share cell %d", p)
		}
		seen[p] = true
		if got := m.Word(in.B + int(p)); got != machine.Word(i)+1 {
			t.Fatalf("cell %d holds %d, want item %d", p, got, i+1)
		}
		// The cell must lie in the item's own subarray.
		l := labels[i]
		lo := m.Word(in.Ptrs + l)
		hi := lo + 4*m.Word(in.Counts+l)
		if p < lo || p >= hi {
			t.Fatalf("item %d (label %d) placed at %d outside [%d,%d)", i, l, p, lo, hi)
		}
	}
}

func randomLabels(seed uint64, n, nsets, skew int) []int {
	s := xrand.NewStream(seed)
	labels := make([]int, n)
	for i := range labels {
		if skew > 0 && s.Intn(2) == 0 {
			labels[i] = s.Intn(skew) // half the items in a few hot sets
		} else {
			labels[i] = s.Intn(nsets)
		}
	}
	return labels
}

func TestRunUniformSets(t *testing.T) {
	for _, tc := range []struct{ n, nsets int }{
		{16, 2}, {100, 10}, {1000, 50}, {2048, 2048},
	} {
		labels := randomLabels(uint64(tc.n), tc.n, tc.nsets, 0)
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(uint64(tc.n)+5))
		in, err := BuildInput(m, labels, tc.nsets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(m, in)
		if err != nil {
			t.Fatalf("n=%d nsets=%d: %v", tc.n, tc.nsets, err)
		}
		checkPlacement(t, m, in, res, labels)
	}
}

func TestRunHeavyAndLightMix(t *testing.T) {
	// One huge set (heavy regime) plus many singletons (light regime).
	n := 2000
	labels := make([]int, n)
	for i := 0; i < n/2; i++ {
		labels[i] = 0
	}
	for i := n / 2; i < n; i++ {
		labels[i] = 1 + i%(n/4)
	}
	m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(77))
	in, err := BuildInput(m, labels, 1+n/4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, in)
	if err != nil {
		t.Fatal(err)
	}
	checkPlacement(t, m, in, res, labels)
}

func TestRunEmpty(t *testing.T) {
	m := machine.New(machine.QRQW, 1024)
	in, err := BuildInput(m, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, in); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadLabel(t *testing.T) {
	m := machine.New(machine.QRQW, 1024)
	if _, err := BuildInput(m, []int{0, 5}, 3); err == nil {
		t.Error("label out of range should fail")
	}
}

func TestRunLogTime(t *testing.T) {
	for _, lgn := range []int{12, 14} {
		n := 1 << uint(lgn)
		labels := randomLabels(uint64(lgn), n, n/16, 4)
		m := machine.New(machine.QRQW, 1<<uint(lgn+5), machine.WithSeed(2))
		in, err := BuildInput(m, labels, n/16)
		if err != nil {
			t.Fatal(err)
		}
		before := m.Stats()
		if _, err := Run(m, in); err != nil {
			t.Fatal(err)
		}
		d := m.Stats().Sub(before)
		if d.Time > int64(30*lgn) {
			t.Errorf("n=2^%d: time %d not O(lg n)", lgn, d.Time)
		}
		// Placed items idle-poll across the O(lg* n) rounds instead of
		// being reallocated (Theorem 2.4 in the paper), costing a small
		// constant factor.
		if d.Ops > int64(60*n) {
			t.Errorf("n=2^%d: ops %d not O(n * lg* n)", lgn, d.Ops)
		}
	}
}

func TestBuildInputSubarraySizes(t *testing.T) {
	labels := []int{0, 1, 1, 1}
	m := machine.New(machine.QRQW, 4096)
	in, err := BuildInput(m, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Word(in.Counts) != 1 || m.Word(in.Counts+1) != 3 || m.Word(in.Counts+2) != 0 {
		t.Errorf("counts wrong")
	}
	if in.BLen < 4*1+4*3+4 {
		t.Errorf("BLen = %d too small", in.BLen)
	}
	_ = prim.Max // keep import stable if assertions change
}
