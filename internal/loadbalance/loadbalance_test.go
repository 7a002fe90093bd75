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
		verifyAssignment(t, counts, b.Assignment(), b.Bound*b.unit)
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
	if b.unit <= 1 {
		t.Fatalf("expected super-tasks, unit = %d", b.unit)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	verifyAssignment(t, counts, b.Assignment(), b.Bound*b.unit)
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

// TestBalancerFootprint pins the pointer arrays' size to the run's width
// bound: Table I's L = 32 cell at n = 65536 runs no stage, so each
// processor needs one entry, and the balancer allocates 4n words, which
// Words predicts.
func TestBalancerFootprint(t *testing.T) {
	const n = 65536
	counts := TwoHeavy(n, 32, 16)
	m := machine.New(machine.QRQW, Words(counts))
	b, err := New(m, counts)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.PeakAllocated(); got != 4*n || Words(counts) != 4*n {
		t.Errorf("peak %d words, Words %d, want both %d", got, Words(counts), 4*n)
	}
	if got := m.MemWords(); got != 4*n {
		t.Errorf("session grew to %d words, want %d", got, 4*n)
	}
}

// TestWordsIsPeak checks Words against the machine's allocation peak
// over sizes, loads on both sides of the first stage (L = 122) and the
// super-task threshold (m > 2n), input shapes and seeds: the balancer's
// footprint is a function of its counts alone.
func TestWordsIsPeak(t *testing.T) {
	shapes := map[string]func(n, L int) []int{
		"one-heavy": func(n, L int) []int {
			c := make([]int, n)
			c[0] = L
			return c
		},
		"two-heavy": func(n, L int) []int { return TwoHeavy(n, L, L/2) },
		"random": func(n, L int) []int {
			s := xrand.NewStream(uint64(n*L + 1))
			c := make([]int, n)
			for i := range c {
				c[i] = s.Intn(L + 1)
			}
			c[0] = L
			return c
		},
	}
	for name, shape := range shapes {
		for _, n := range []int{1, 2, 64, 100, 1024} {
			for _, L := range []int{0, 4, 37, 121, 122, 256, 1024, 2048, 4096} {
				counts := shape(n, L)
				want := Words(counts)
				for seed := uint64(1); seed <= 2; seed++ {
					m := machine.New(machine.QRQW, 0, machine.WithSeed(seed))
					b, err := New(m, counts)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Run(); err != nil {
						t.Fatal(err)
					}
					if got := m.PeakAllocated(); got != want {
						t.Fatalf("%s n=%d L=%d seed %d: peak %d words, Words %d", name, n, L, seed, got, want)
					}
				}
			}
		}
	}
	if got := Words([]int{1, -1}); got != 0 {
		t.Errorf("Words of a negative count = %d, want 0", got)
	}
}

// TestQWidthBound checks the width bound's two ends: a single entry
// wherever no dispersal stage can run (L <= 121), and never more than
// maxQ entries.
func TestQWidthBound(t *testing.T) {
	for _, n := range []int{1, 2, 61, 64, 1000, 4096, 65536, 1 << 20} {
		for _, mU := range []int{1, n, 2 * n} {
			for L := 1; L <= 121; L++ {
				if w := qWidth(n, mU, L); w != 1 {
					t.Fatalf("qWidth(%d, %d, %d) = %d, want 1", n, mU, L, w)
				}
			}
			for L := 122; L <= 1<<22; L += L/7 + 1 {
				if w := qWidth(n, mU, L); w < 1 || w > maxQ {
					t.Fatalf("qWidth(%d, %d, %d) = %d, want within [1, %d]", n, mU, L, w, maxQ)
				}
			}
		}
	}
}

// TestBalancerWidthGrid runs the balancer at its bounded width and at
// the maxQ cap over a grid of sizes, loads and shapes. The bounded run
// must never trip the capacity panic, must satisfy the assignment
// bound, and must charge and assign exactly what the capped run does:
// capacity moves addresses only.
func TestBalancerWidthGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid of 240 balancer runs")
	}
	shapes := []struct {
		name   string
		counts func(n, L int) []int
	}{
		{"one-heavy", func(n, L int) []int {
			c := make([]int, n)
			c[0] = L
			return c
		}},
		{"two-heavy", func(n, L int) []int { return TwoHeavy(n, L, L/2) }},
		{"every-7th", func(n, L int) []int {
			c := make([]int, n)
			for i := 0; i < n; i += 7 {
				c[i] = L
			}
			return c
		}},
		// Unit loads fill m up to 2n, so the compaction target is large
		// and the multiplicity mu exceeds the team size (n = 64, L = 122).
		{"dense", func(n, L int) []int {
			c := make([]int, n)
			c[0] = L
			for i, left := 1, 2*n-L; i < n && left > 0; i++ {
				c[i] = min(2, left)
				left -= c[i]
			}
			return c
		}},
		{"random", func(n, L int) []int {
			s := xrand.NewStream(uint64(n*L + 1))
			c := make([]int, n)
			for i := range c {
				c[i] = s.Intn(L + 1)
			}
			c[1] = L
			return c
		}},
	}
	run := func(counts []int, seed uint64, width func(n, mU, L int) int) (*Balancer, machine.Stats) {
		m := machine.New(machine.QRQW, 1<<16, machine.WithSeed(seed))
		b, err := newBalancer(m, counts, width)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(); err != nil {
			t.Fatal(err)
		}
		return b, m.Stats()
	}
	capped := func(int, int, int) int { return maxQ }
	for _, n := range []int{64, 1024, 4096} {
		for _, L := range []int{32, 37, 121, 122, 256, 1024, 4096, 15000} {
			for _, sh := range shapes {
				counts := sh.counts(n, L)
				seed := uint64(n + L)
				b, st := run(counts, seed, qWidth)
				verifyAssignment(t, counts, b.Assignment(), b.Bound*b.unit)
				ref, refSt := run(counts, seed, capped)
				if st != refSt {
					t.Errorf("n=%d L=%d %s: stats at width %d %+v, at width %d %+v",
						n, L, sh.name, b.qw, st, maxQ, refSt)
				}
				if !slices.EqualFunc(b.Assignment(), ref.Assignment(), slices.Equal) {
					t.Errorf("n=%d L=%d %s: assignment differs between width %d and %d",
						n, L, sh.name, b.qw, maxQ)
				}
			}
		}
	}
}
