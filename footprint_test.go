package lowcontend

import (
	"encoding/json"
	"fmt"
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

// TestDynamicRequestsFitFootprint checks dynamic session sizing: each
// session requests the largest words of the phases it runs. For
// testdata/definitions/table1-dynamic.json at its grid, seeds 1–3,
// every request must be below 1<<20 words and at most its session's
// peak plus 4096. A pinned definition of 16 permutation.random phases
// at n = 1024 must request no more than one such phase alone, so the
// phase count cannot multiply the up-front allocation.
func TestDynamicRequestsFitFootprint(t *testing.T) {
	runner := &spec.Runner{Parallel: 2}
	e := table1Dynamic(t)
	for seed := uint64(1); seed <= 3; seed++ {
		res := runner.Run(e, e.DefaultSizes, seed)
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Cells {
			if len(c.Footprints) == 0 {
				t.Errorf("%s seed %d: no sessions recorded", c.Cell, seed)
			}
			for i, f := range c.Footprints {
				if f.Requested >= 1<<20 || f.Requested > f.Peak+4096 {
					t.Errorf("%s seed %d session %d (%v): requested %d words for a peak of %d",
						c.Cell, seed, i+1, f.Model, f.Requested, f.Peak)
				}
			}
		}
	}

	requested := func(phases int) int {
		var ps []map[string]any
		for i := range phases {
			ps = append(ps, map[string]any{"name": fmt.Sprintf("perm%d", i), "algorithm": "permutation.random", "model": "qrqw"})
		}
		raw, err := json.Marshal(map[string]any{"name": "perms", "sizes": []int{1024}, "phases": ps})
		if err != nil {
			t.Fatal(err)
		}
		e := compileDefinition(t, raw)
		res := runner.Run(e, e.DefaultSizes, 1)
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		if fs := res.Cells[0].Footprints; len(fs) != 1 {
			t.Fatalf("%d phases: %d sessions, want 1", phases, len(fs))
		}
		return res.Cells[0].Footprints[0].Requested
	}
	if one, sixteen := requested(1), requested(16); sixteen > one {
		t.Errorf("16 permutation phases requested %d words, one phase %d", sixteen, one)
	}
}
