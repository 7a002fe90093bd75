package lowcontend

import (
	"testing"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
)

// TestBuiltinRequestsCoverFootprint checks every session request of
// every builtin cell against the session's allocation peak, at the
// default sizes and at n = 1024 (the sweep size), seeds 1–3: the
// request must cover the peak, or the session grows mid-cell, and must
// not exceed it by more than an eighth plus 4096 words, or the cell
// holds memory it never uses. The cells share one pool at parallelism
// 4, so the pool's best fit serves varied request sizes throughout.
// Under -short only n = 1024 runs.
func TestBuiltinRequestsCoverFootprint(t *testing.T) {
	pool := core.NewSessionPool()
	defer pool.Close()
	runner := &spec.Runner{Parallel: 4, Pool: pool}
	for _, e := range exp.Registry() {
		grids := [][]int{{1024}}
		if !testing.Short() && e.DefaultSizes != nil {
			grids = append(grids, e.DefaultSizes)
		}
		for _, sizes := range grids {
			for seed := uint64(1); seed <= 3; seed++ {
				res := runner.Run(e, sizes, seed)
				if err := res.FirstErr(); err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Cells {
					for i, f := range c.Footprints {
						if f.Peak > f.Requested || f.Requested > f.Peak+f.Peak/8+4096 {
							t.Errorf("%s/%s seed %d session %d (%v): requested %d words for a peak of %d",
								e.Name, c.Cell, seed, i+1, f.Model, f.Requested, f.Peak)
						}
					}
				}
			}
		}
	}
}
