package xrand

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for the canonical SplitMix64 sequence seeded 0.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	// SplitMix64 in this package takes the pre-increment state: passing
	// i*gamma yields the (i+1)-th output of the canonical generator.
	const gamma = 0x9e3779b97f4a7c15
	for i, w := range want {
		if got := SplitMix64(uint64(i) * gamma); got != w {
			t.Fatalf("SplitMix64 output %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestMix3Distinct(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := uint64(0); seed < 4; seed++ {
		for step := uint64(0); step < 8; step++ {
			for proc := uint64(0); proc < 8; proc++ {
				h := Mix3(seed, step, proc)
				if seen[h] {
					t.Fatalf("Mix3 collision at (%d,%d,%d)", seed, step, proc)
				}
				seen[h] = true
			}
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-keyed streams diverged")
		}
	}
	c := NewStream(43)
	same := 0
	a = NewStream(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different keys produced %d/100 identical values", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := NewStream(7)
	for _, n := range []uint64{1, 2, 3, 10, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Uint64n(0) should panic")
		}
	}()
	NewStream(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewStream(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	// Chi-squared sanity check over 16 buckets.
	const buckets = 16
	const draws = 160000
	s := NewStream(12345)
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	expected := float64(draws) / buckets
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 degrees of freedom: P(chi2 > 37.7) < 0.001.
	if chi2 > 37.7 {
		t.Errorf("chi-squared = %.1f too large; counts = %v", chi2, counts)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		p := NewStream(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReseedAvoidsAllZeroState(t *testing.T) {
	// Find-free guard: reseeding with any key must produce a usable
	// stream (non-zero outputs eventually).
	s := NewStream(0)
	var nonzero bool
	for i := 0; i < 10; i++ {
		if s.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("stream stuck at zero")
	}
}

// mix3Ref is Mix3 written out as three chained mixer calls, the form
// every recorded stream was keyed with.
func mix3Ref(seed, step, proc uint64) uint64 {
	h := SplitMix64(seed ^ 0x8f1bbcdcbfa53e0b)
	h = SplitMix64(h ^ step*0xd6e8feb86659fd93)
	return SplitMix64(h ^ proc*0xa0761d6478bd642f)
}

func TestStepKeyPrefixProperty(t *testing.T) {
	f := func(seed, step, proc uint64) bool {
		want := mix3Ref(seed, step, proc)
		return Mix3(seed, step, proc) == want && ProcKey(StepKey(seed, step), proc) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
