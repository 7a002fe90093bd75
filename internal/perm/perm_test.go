package perm

import (
	"fmt"
	"testing"
	"testing/quick"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
)

func loadPerm(m *machine.Machine, base, n int) []int {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(m.Word(base + i))
	}
	return out
}

func TestRandomIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 5, 17, 128, 1000} {
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(uint64(n)))
		base, err := Random(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := loadPerm(m, base, n)
		if !IsPermutation(p) {
			t.Fatalf("n=%d: not a permutation: %v", n, p)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []int {
		m := machine.New(machine.QRQW, 1<<14, machine.WithSeed(seed))
		base, err := Random(m, 64)
		if err != nil {
			t.Fatal(err)
		}
		return loadPerm(m, base, 64)
	}
	a, b := run(5), run(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different permutations")
		}
	}
	c := run(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestRandomUniformity(t *testing.T) {
	// Chi-squared over the position of item 0 in many runs.
	const n = 8
	const runs = 4000
	counts := make([]int, n)
	for r := 0; r < runs; r++ {
		m := machine.New(machine.QRQW, 1<<12, machine.WithSeed(uint64(r)+1000))
		base, err := Random(m, n)
		if err != nil {
			t.Fatal(err)
		}
		p := loadPerm(m, base, n)
		for pos, item := range p {
			if item == 0 {
				counts[pos]++
			}
		}
	}
	expected := float64(runs) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 7 dof: P(chi2 > 24.3) < 0.001.
	if chi2 > 24.3 {
		t.Errorf("position of item 0 not uniform: chi2=%.1f counts=%v", chi2, counts)
	}
}

func TestRandomLogTimeLinearWork(t *testing.T) {
	for _, lgn := range []int{12, 14, 16} {
		n := 1 << uint(lgn)
		m := machine.New(machine.QRQW, 1<<uint(lgn+4), machine.WithSeed(3))
		if _, err := Random(m, n); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Time > int64(40*lgn) {
			t.Errorf("n=2^%d: time %d not O(lg n)", lgn, st.Time)
		}
		// Placed items idle-poll instead of being reallocated (the
		// paper applies Theorem 2.4); that costs an O(lg lg n) work
		// factor in the simulator, documented in DESIGN.md.
		lglg := prim.CeilLog2(lgn)
		if st.Ops > int64(40*n*lglg) {
			t.Errorf("n=2^%d: ops %d not O(n lg lg n)", lgn, st.Ops)
		}
	}
}

func TestScanDartIsPermutation(t *testing.T) {
	for _, n := range []int{1, 3, 50, 700} {
		m := machine.New(machine.QRQW, 1<<15, machine.WithSeed(uint64(2*n+1)))
		base, err := ScanDart(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p := loadPerm(m, base, n); !IsPermutation(p) {
			t.Fatalf("n=%d: not a permutation: %v", n, p)
		}
	}
}

func TestScanDartUsesUnitScanOnScanModel(t *testing.T) {
	m := machine.New(machine.ScanQRQW, 1<<12, machine.WithSeed(4))
	if _, err := ScanDart(m, 100); err != nil {
		t.Fatal(err)
	}
	if m.Stats().ScanSteps == 0 {
		t.Error("scan model run should use ScanStep")
	}
}

func TestSortingBasedIsPermutation(t *testing.T) {
	for _, n := range []int{1, 2, 10, 200} {
		m := machine.New(machine.EREW, 1<<14, machine.WithSeed(uint64(n)*3))
		base, err := SortingBased(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.Err() != nil {
			t.Fatalf("n=%d: EREW violation: %v", n, m.Err())
		}
		if p := loadPerm(m, base, n); !IsPermutation(p) {
			t.Fatalf("n=%d: not a permutation", n)
		}
	}
}

func TestTableIIOrdering(t *testing.T) {
	// The paper's Table II: the QRQW dart-throwing algorithm beats
	// dart-throwing-with-scans, which beats the sorting-based EREW
	// algorithm (charged time on the queued-contention metric).
	n := 1 << 12
	timeOf := func(f func(*machine.Machine, int) (int, error)) int64 {
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(42))
		if _, err := f(m, n); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Time
	}
	qrqw := timeOf(Random)
	scans := timeOf(ScanDart)
	sorting := timeOf(SortingBased)
	if !(qrqw < scans && scans < sorting) {
		t.Errorf("Table II ordering violated: qrqw=%d scans=%d sorting=%d", qrqw, scans, sorting)
	}
}

func TestCyclicFastIsCyclic(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 1024} {
		m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(uint64(n)+7))
		base, err := CyclicFast(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		p := loadPerm(m, base, n)
		if !IsCyclic(p) {
			t.Fatalf("n=%d: not a single cycle: %v", n, CycleRepresentation(p))
		}
	}
}

func TestCyclicFastSublogarithmic(t *testing.T) {
	// Time should grow much slower than lg n: compare against the
	// sorting-based EREW permutation as a calibration.
	n := 1 << 14
	m := machine.New(machine.QRQW, 1<<22, machine.WithSeed(11))
	if _, err := CyclicFast(m, n); err != nil {
		t.Fatal(err)
	}
	cyc := m.Stats().Time
	lg := int64(prim.CeilLog2(n))
	if cyc > 12*lg {
		t.Errorf("CyclicFast time %d too large vs lg n = %d", cyc, lg)
	}
}

func TestCyclicUniformityOfSuccessor(t *testing.T) {
	// In a uniform cyclic permutation on n items, succ(0) is uniform
	// over the other n-1 items.
	const n = 6
	const runs = 3000
	counts := make(map[int]int)
	for r := 0; r < runs; r++ {
		m := machine.New(machine.QRQW, 1<<13, machine.WithSeed(uint64(r)+555))
		base, err := CyclicFast(m, n)
		if err != nil {
			t.Fatal(err)
		}
		counts[int(m.Word(base))]++
	}
	expected := float64(runs) / (n - 1)
	chi2 := 0.0
	for item := 1; item < n; item++ {
		d := float64(counts[item]) - expected
		chi2 += d * d / expected
	}
	if counts[0] != 0 {
		t.Error("succ(0) == 0 should be impossible in a cycle")
	}
	// 4 dof: P(chi2 > 18.5) < 0.001.
	if chi2 > 18.5 {
		t.Errorf("succ(0) not uniform: chi2=%.1f counts=%v", chi2, counts)
	}
}

func TestCycleRepresentation(t *testing.T) {
	// Figure 1's example shapes: a cyclic and a non-cyclic permutation.
	cyclic := []int{2, 0, 3, 4, 1}
	if !IsCyclic(cyclic) {
		t.Error("expected cyclic")
	}
	if got := CycleRepresentation(cyclic); len(got) != 1 || len(got[0]) != 5 {
		t.Errorf("cycles = %v", got)
	}
	noncyc := []int{1, 0, 3, 2, 4}
	if IsCyclic(noncyc) {
		t.Error("expected non-cyclic")
	}
	if got := CycleRepresentation(noncyc); len(got) != 3 {
		t.Errorf("cycles = %v", got)
	}
}

func TestIsPermutationRejects(t *testing.T) {
	if IsPermutation([]int{0, 0}) || IsPermutation([]int{2, 0}) || IsPermutation([]int{-1, 0}) {
		t.Error("IsPermutation accepted invalid input")
	}
	if IsCyclic(nil) {
		t.Error("IsCyclic(nil) should be false")
	}
}

func TestQuickPermutationProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		m := machine.New(machine.QRQW, 1<<14, machine.WithSeed(seed))
		base, err := Random(m, n)
		if err != nil {
			return false
		}
		return IsPermutation(loadPerm(m, base, n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// checkPlacedScalar is the reference for checkPlaced: the perm/check
// step as a ParDo body in which each processor reads its item's status
// and raises the flag if the item is unplaced.
func checkPlacedScalar(m *machine.Machine, n, status, flag int) error {
	return m.ParDoL(n, "perm/check", func(c *machine.Ctx, i int) {
		if c.Read(status+i) < 0 {
			c.Write(flag, 1)
		}
	})
}

// TestCheckPlacedMatchesScalar pins the perm/check Bulk step to its
// element-by-element ParDo reference under all nine models, with and
// without hot-cell attribution, at u = 0, 1, 2 and n unplaced items:
// same Stats, traces, flag value and error. Restarts are rare enough
// that no Random run reaches u > 0, so the step is driven directly.
func TestCheckPlacedMatchesScalar(t *testing.T) {
	type outcome struct {
		st         machine.Stats
		trace, err string
		flag       machine.Word
	}
	for _, n := range []int{1, 8, 64} {
		for _, u := range []int{0, 1, 2, n} {
			if u > n {
				continue
			}
			status := make([]machine.Word, n)
			for i := range status {
				// i -> (5i+3) mod n is a bijection for these n, so the u
				// unplaced items are spread over the processors.
				if (5*i+3)%n < u {
					status[i] = -1
				} else {
					status[i] = machine.Word(i)
				}
			}
			for model := machine.EREW; model <= machine.ScanQRQW; model++ {
				for _, hotK := range []int{0, 4} {
					run := func(step func(*machine.Machine, int, int, int) error) outcome {
						m := machine.New(model, 1<<10, machine.WithTrace(), machine.WithHotCells(hotK))
						st := m.Alloc(n)
						flag := m.Alloc(1)
						m.Store(st, status)
						var o outcome
						if err := step(m, n, st, flag); err != nil {
							o.err = err.Error()
						}
						o.st = m.Stats()
						o.trace = fmt.Sprintf("%+v", m.StepTraces())
						o.flag = m.Word(flag)
						return o
					}
					got, want := run(checkPlaced), run(checkPlacedScalar)
					if got != want {
						t.Errorf("n=%d u=%d %v hotK=%d:\n got %+v\nwant %+v", n, u, model, hotK, got, want)
					}
				}
			}
		}
	}
}

// TestRandomWords checks RandomWords against the allocation peak of
// Random over sizes on both sides of a power of two, where the subarray
// total crosses one and doubles the prefix-sums tree, and over seeds.
func TestRandomWords(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 100, 1024, 4096, 32768} {
		for seed := uint64(1); seed <= 3; seed++ {
			m := machine.New(machine.QRQW, 0, machine.WithSeed(seed))
			if _, err := Random(m, n); err != nil {
				t.Fatal(err)
			}
			if got, want := m.PeakAllocated(), RandomWords(n); got != want {
				t.Errorf("n=%d seed %d: peak %d words, RandomWords %d", n, seed, got, want)
			}
		}
	}
}

// BenchmarkDartPermutation measures the two dart-throwing permutations
// of Table II at n = 1024, each on one QRQW machine reused through
// Reset (so every iteration replays the same run), in host ns per
// charged PRAM op.
func BenchmarkDartPermutation(bb *testing.B) {
	const n = 1024
	for _, c := range []struct {
		name string
		f    func(*machine.Machine, int) (int, error)
	}{{"Random", Random}, {"ScanDart", ScanDart}} {
		bb.Run(c.name, func(bb *testing.B) {
			m := machine.New(machine.QRQW, RandomWords(n), machine.WithSeed(1))
			defer m.Free()
			var ops int64
			for range bb.N {
				bb.StopTimer()
				m.Reset()
				bb.StartTimer()
				if _, err := c.f(m, n); err != nil {
					bb.Fatal(err)
				}
				ops += m.Stats().Ops
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(ops), "ns/op-charged")
		})
	}
}
