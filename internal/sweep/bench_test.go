package sweep

import (
	"testing"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
)

// BenchmarkSweep runs and renders Table II at n = 1024 under the
// default models with seeds 1–4, one cell at a time over a pool reused
// across iterations, and reports wall-clock per charged PRAM operation
// (the points' Ops summed over the whole grid) and allocations.
func BenchmarkSweep(b *testing.B) {
	e, _ := exp.Find("table2")
	p, err := Normalize(e, Plan{Sizes: []int{1024}, Seeds: []uint64{1, 2, 3, 4}})
	if err != nil {
		b.Fatal(err)
	}
	pool := core.NewSessionPool()
	defer pool.Close()
	r := &Runner{Parallel: 1, Pool: pool}
	b.ReportAllocs()
	var ops int64
	for b.Loop() {
		res := r.Run(e, p)
		if RenderText(res) == "" {
			b.Fatal("empty rendering")
		}
		for _, pt := range res.Points {
			ops += pt.Ops
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op-charged")
}
