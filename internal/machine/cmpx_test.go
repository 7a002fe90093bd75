package machine

import (
	"fmt"
	"testing"

	"lowcontend/internal/xrand"
)

// TestCompareExchangePaths runs a whole bitonic network of
// CompareExchange rounds in place and through the scalar buffers
// (noBulkFast), under every model: stats, errors, traces and memory
// must agree, and the dirty mark must stay sound on both paths. At
// n = 1024 the rounds with j >= cmpxBlockMin take the blocked kernels
// and the others the ordinal loops. Keys repeat heavily, so equal keys
// meet in both kernels; the distinct payload shows that they swap in
// descending blocks and keep their order in ascending ones.
func TestCompareExchangePaths(t *testing.T) {
	for _, n := range []int{64, 1024} {
		keys, vals, memN := 5, n+10, 2*n+20
		for _, model := range allModels {
			for _, payload := range []bool{false, true} {
				run := func(buffered bool) string {
					m := New(model, memN, WithTrace())
					m.noBulkFast = buffered
					rng := xrand.NewStream(9)
					v := -1
					if payload {
						v = vals
					}
					for i := range n {
						m.SetWord(keys+i, Word(rng.Intn(n/16)))
						if payload {
							m.SetWord(vals+i, Word(i+1))
						}
					}
					var err error
					for k := 2; k <= n && err == nil; k <<= 1 {
						for j := k >> 1; j > 0 && err == nil; j >>= 1 {
							err = m.CompareExchange("cmpx", keys, v, n, j, k)
						}
					}
					checkDirtySound(t, m)
					return fmt.Sprintf("%v\n%+v\n%+v\n%v", err, m.Stats(), m.StepTraces(), m.LoadWords(0, memN))
				}
				if got, want := run(false), run(true); got != want {
					t.Errorf("n=%d %v payload=%v: in place\n%s\nbuffered\n%s", n, model, payload, got, want)
				}
			}
		}
	}
}

// TestCompareExchangeRejects checks the step's misuse panics, word for
// word: a bad round shape, a region out of range, and overlapping key
// and payload regions.
func TestCompareExchangeRejects(t *testing.T) {
	m := New(EREW, 64)
	for _, c := range []struct {
		name                string
		keys, vals, n, j, k int
		want                string
	}{
		{"n not a power of two", 0, -1, 6, 1, 2, "machine: CompareExchange n=6 j=1 k=2"},
		{"j above k/2", 0, -1, 8, 2, 2, "machine: CompareExchange n=8 j=2 k=2"},
		{"keys past the end", 60, -1, 8, 1, 2, "machine: address 67 out of range 0..64"},
		{"negative keys", -1, -1, 8, 1, 2, "machine: address -1 out of range 0..64"},
		{"vals past the end", 0, 60, 8, 1, 2, "machine: address 67 out of range 0..64"},
		{"vals inside keys", 0, 4, 8, 1, 2, "machine: CompareExchange keys [0,8) overlap vals [4,12)"},
		{"keys inside vals", 12, 8, 8, 4, 8, "machine: CompareExchange keys [12,20) overlap vals [8,16)"},
	} {
		msg := panicMsg(func() { _ = m.CompareExchange("cmpx", c.keys, c.vals, c.n, c.j, c.k) })
		if msg != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, msg, c.want)
		}
	}
	if st := m.Stats(); st.Steps != 0 {
		t.Errorf("rejected rounds charged %d steps", st.Steps)
	}
}
