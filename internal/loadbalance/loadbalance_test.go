package loadbalance

import (
	"slices"
	"testing"
	"testing/quick"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// TestTwoHeavy pins the small-L input: maximum load maxLoad at every n,
// including n = 1 where both heavy positions are processor 0.
func TestTwoHeavy(t *testing.T) {
	for _, c := range []struct {
		n     int
		want  []int
		total int
	}{
		{1, []int{32}, 32},
		{2, []int{32, 16}, 48},
		{1024, nil, 48},
	} {
		counts := TwoHeavy(c.n, 32, 16)
		total, mx := 0, 0
		for _, v := range counts {
			total += v
			mx = max(mx, v)
		}
		if len(counts) != c.n || mx != 32 || counts[0] != 32 || total != c.total {
			t.Errorf("n=%d: len %d, max %d, counts[0] %d, total %d; want len %d, max 32, counts[0] 32, total %d",
				c.n, len(counts), mx, counts[0], total, c.n, c.total)
		}
		if c.want != nil && !slices.Equal(counts, c.want) {
			t.Errorf("n=%d: counts %v, want %v", c.n, counts, c.want)
		}
		if c.n > 1 && counts[c.n/2] != 16 {
			t.Errorf("n=%d: counts[%d] = %d, want 16", c.n, c.n/2, counts[c.n/2])
		}
	}
}

// verifyAssignment checks that the union of ranges covers every task
// exactly once.
func verifyAssignment(t *testing.T, counts []int, asg [][]TaskRange, boundTasks int) {
	t.Helper()
	total := 0
	for _, c := range counts {
		total += c
	}
	covered := make([]bool, total)
	maxPer := 0
	for p, rs := range asg {
		per := 0
		for _, r := range rs {
			if r.Len < 0 || r.Start < 0 || r.Start+r.Len > total {
				t.Fatalf("proc %d: bad range %+v", p, r)
			}
			for j := r.Start; j < r.Start+r.Len; j++ {
				if covered[j] {
					t.Fatalf("task %d assigned twice", j)
				}
				covered[j] = true
			}
			per += r.Len
		}
		if per > maxPer {
			maxPer = per
		}
	}
	for j, ok := range covered {
		if !ok {
			t.Fatalf("task %d unassigned", j)
		}
	}
	if boundTasks > 0 && maxPer > boundTasks {
		t.Errorf("max tasks per proc = %d exceeds bound %d", maxPer, boundTasks)
	}
}

// skewedCounts gives all m tasks to a few processors.
func skewedCounts(n, m, holders int) []int {
	counts := make([]int, n)
	per := m / holders
	rem := m - per*holders
	for i := 0; i < holders; i++ {
		counts[i] = per
	}
	counts[0] += rem
	return counts
}

func TestBalanceSingleHotProcessor(t *testing.T) {
	// The lower-bound instance of Theorem 3.2: one processor holds L
	// tasks, everyone else none.
	for _, tc := range []struct{ n, L int }{
		{64, 16}, {256, 64}, {256, 256}, {1024, 512},
	} {
		counts := make([]int, tc.n)
		counts[0] = tc.L
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(uint64(tc.n+tc.L)))
		b, err := New(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatalf("n=%d L=%d: %v", tc.n, tc.L, err)
		}
		verifyAssignment(t, counts, b.Assignment(), b.Bound*b.Unit())
		// The reconstruction's fixed-point constant is ~14*u* (= ~210
		// units); the key property is that it does not grow with n or L.
		if b.Bound > 256 {
			t.Errorf("n=%d L=%d: final bound %d not O(1)", tc.n, tc.L, b.Bound)
		}
	}
}

func TestBalanceUniformAlreadyBalanced(t *testing.T) {
	n := 128
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 2
	}
	m := machine.New(machine.QRQW, 1<<14)
	b, err := New(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	verifyAssignment(t, counts, b.Assignment(), 0)
}

func TestBalanceSuperTasks(t *testing.T) {
	// m > 2n forces super-task normalization.
	n := 64
	counts := skewedCounts(n, 64*40, 3)
	m := machine.New(machine.QRQW, 1<<16)
	b, err := New(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	if b.Unit() <= 1 {
		t.Fatalf("expected super-tasks, unit = %d", b.Unit())
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	verifyAssignment(t, counts, b.Assignment(), b.Bound*b.Unit())
	if b.MaxTasks() > b.Bound*b.Unit() {
		t.Errorf("MaxTasks %d > bound %d", b.MaxTasks(), b.Bound*b.Unit())
	}
}

func TestBalanceRandomInstances(t *testing.T) {
	f := func(seed uint64, nRaw, skew uint8) bool {
		n := int(nRaw%120) + 8
		s := xrand.NewStream(seed)
		counts := make([]int, n)
		mTot := 2 * n
		// Concentrate tasks on a few processors.
		holders := int(skew%8) + 1
		for j := 0; j < mTot; j++ {
			counts[s.Intn(holders)]++
		}
		m := machine.New(machine.QRQW, 1<<15, machine.WithSeed(seed))
		b, err := New(m, counts)
		if err != nil {
			return false
		}
		if err := b.Run(); err != nil {
			return false
		}
		total := 0
		covered := make(map[int]bool)
		for _, rs := range b.Assignment() {
			for _, r := range rs {
				for j := r.Start; j < r.Start+r.Len; j++ {
					if covered[j] {
						return false
					}
					covered[j] = true
				}
				total += r.Len
			}
		}
		return total == mTot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBalanceEmptyAndTiny(t *testing.T) {
	m := machine.New(machine.QRQW, 4096)
	if _, err := New(m, nil); err == nil {
		t.Error("empty processor set should error")
	}
	b, err := New(m, []int{0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	verifyAssignment(t, []int{0, 0, 0}, b.Assignment(), 0)

	b2, err := New(m, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Run(); err != nil {
		t.Fatal(err)
	}
	verifyAssignment(t, []int{5}, b2.Assignment(), 0)
}

func TestBalanceNegativeCount(t *testing.T) {
	m := machine.New(machine.QRQW, 1024)
	if _, err := New(m, []int{1, -2}); err == nil {
		t.Error("negative count should error")
	}
}

func TestEREWBalance(t *testing.T) {
	for _, tc := range []struct{ n, L int }{
		{32, 16}, {128, 128}, {100, 37},
	} {
		counts := make([]int, tc.n)
		counts[tc.n/2] = tc.L
		counts[0] = 3
		m := machine.New(machine.EREW, 1<<15)
		asg, err := EREWBalance(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		if m.Err() != nil {
			t.Fatalf("EREW violation: %v", m.Err())
		}
		verifyAssignment(t, counts, asg, 4*(prim.CeilDiv(tc.L+3, tc.n)+1)*prim.Max(1, prim.CeilDiv(tc.L+3, tc.n)))
	}
}

func TestEREWBalanceEmpty(t *testing.T) {
	m := machine.New(machine.EREW, 1024)
	asg, err := EREWBalance(m, []int{0, 0})
	if err != nil || len(asg) != 2 || len(asg[0]) != 0 {
		t.Errorf("asg=%v err=%v", asg, err)
	}
	if _, err := EREWBalance(m, nil); err == nil {
		t.Error("no processors should error")
	}
}

func TestQRQWTimeGrowsWithLgL(t *testing.T) {
	// Theorem 3.2: time is Omega(lg L). Doubling lg L should increase
	// charged time, and the dependence should be roughly linear in lg L
	// for large L (the lg L term dominates).
	n := 512
	timeFor := func(L int) int64 {
		counts := make([]int, n)
		counts[0] = L
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(9))
		b, err := New(m, counts)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Stats().Time
	}
	t16 := timeFor(16)
	t256 := timeFor(256)
	if t256 <= t16 {
		t.Errorf("time did not grow with L: T(16)=%d T(256)=%d", t16, t256)
	}
}

func TestStageDrainsOverloaded(t *testing.T) {
	// After Run, no processor should hold more than Bound units.
	n := 256
	counts := make([]int, n)
	counts[7] = 200
	counts[100] = 150
	m := machine.New(machine.QRQW, 1<<16)
	b, err := New(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		if got := m.Word(b.loadv + p); got > machine.Word(b.Bound) {
			t.Fatalf("proc %d load %d exceeds Bound %d", p, got, b.Bound)
		}
	}
}
