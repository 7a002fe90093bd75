package main

import (
	"fmt"
	"strings"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// warmupOps are discarded closed-loop ops run at the end of set-up: a
// paper-regen pass settles only by the third (0.96 → 0.77 → 0.59 s on
// a 2-CPU host) while the pool's sessions and the heap grow.
const warmupOps = 2

// closedLoop runs op back to back — one client, the next op only after
// the previous one completes — until d has passed. A traced op gets a
// root span named "op" whose id its children use as parent.
func closedLoop(d time.Duration, tr *tracer, op func(tr *tracer, opID int64, trace string) (int64, error)) window {
	var w window
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		opID, trace := tr.id(), fmt.Sprintf("op-%d", i)
		start := time.Now()
		pram, err := op(tr, opID, trace)
		end := time.Now()
		w.attempted++
		if err != nil {
			w.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		tr.record(opID, 0, "op", trace, start, end)
		wall := end.Sub(start)
		w.lat = append(w.lat, wall.Seconds())
		w.nsPerOp = append(w.nsPerOp, float64(wall.Nanoseconds())/float64(pram))
	}
	return w
}

// checkRun fails on any cell error and on the experiment's own shape
// check.
func checkRun(e spec.Experiment, res spec.Result) error {
	if err := res.FirstErr(); err != nil {
		return err
	}
	if e.Check != nil {
		if err := e.Check(res); err != nil {
			return fmt.Errorf("%s: shape check: %w", e.Name, err)
		}
	}
	return nil
}

// cellStats lists the charged stats of each cell's measurements, in
// declaration order.
func cellStats(res spec.Result) [][]machine.Stats {
	out := make([][]machine.Stats, len(res.Cells))
	for i, c := range res.Cells {
		for _, m := range c.Measurements {
			out[i] = append(out[i], m.Stats)
		}
	}
	return out
}

// chargedStats sums the charged stats of every measurement of a run.
func chargedStats(res spec.Result) machine.Stats {
	var st machine.Stats
	for _, m := range res.Measurements() {
		st = st.Add(m.Stats)
	}
	return st
}

func chargedLine(st machine.Stats) string {
	return fmt.Sprintf("charged per op: pram_ops=%d steps=%d time_units=%d max_contention=%d",
		st.Ops, st.Steps, st.Time, st.MaxContention)
}

// cellMetric names the per-layer metric of a cell group: the cell name
// up to its size suffix, reduced to the metric-name alphabet, e.g.
// "random permutation/4096" of table1 → spec.cell_s.table1.random_permutation.
func cellMetric(experiment, cell string) string {
	group, _, _ := strings.Cut(cell, "/")
	var b strings.Builder
	under := false
	for _, r := range group {
		ok := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-'
		switch {
		case ok:
			b.WriteRune(r)
			under = false
		case !under && b.Len() > 0:
			b.WriteByte('_')
			under = true
		}
	}
	return "spec.cell_s." + experiment + "." + strings.TrimSuffix(b.String(), "_")
}

// chargedLayer reports a workload's exact charged counts per op. They
// are invariants of the seed, printed as correctness checks, never
// optimisation targets.
func chargedLayer(m map[string]float64, st machine.Stats) {
	m["machine.pram_ops"] = float64(st.Ops)
	m["machine.steps"] = float64(st.Steps)
	m["machine.time_units"] = float64(st.Time)
	m["machine.max_contention"] = float64(st.MaxContention)
}

// execLayer reports the engine's host-execution counters per op.
func execLayer(m map[string]float64, ex machine.ExecStats, ops float64) {
	m["machine.serial_steps"] = float64(ex.SerialSteps) / ops
	m["machine.gang_dispatches"] = float64(ex.GangDispatches) / ops
	m["machine.fused_settles"] = float64(ex.GangFusedSettles) / ops
	m["machine.sharded_settles"] = float64(ex.GangShardedSettles) / ops
	m["machine.cursor_steals"] = float64(ex.CursorSteals) / ops
	m["machine.bulk_descriptors"] = float64(ex.BulkDescriptors) / ops
	m["machine.bulk_expanded"] = float64(ex.BulkExpanded) / ops
	if ex.BulkDescriptors > 0 {
		m["machine.bulk_hit_ratio"] = float64(ex.BulkDescriptors-ex.BulkExpanded) / float64(ex.BulkDescriptors)
	}
}

// poolLayer reports session-pool traffic per op between two snapshots.
func poolLayer(m map[string]float64, before, after core.PoolStats, ops float64) {
	acq := after.Acquires - before.Acquires
	reuse := after.Reuses - before.Reuses
	m["core.acquires"] = float64(acq) / ops
	m["core.reuses"] = float64(reuse) / ops
	m["core.news"] = float64(after.News-before.News) / ops
	if acq > 0 {
		m["core.reuse_ratio"] = float64(reuse) / float64(acq)
	}
}

// splitmix64 derives a stream of well-mixed seeds from one seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
