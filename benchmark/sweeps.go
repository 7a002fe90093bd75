package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/sweep"
)

// sweepSeeds is the seed axis of every small-sweep plan.
const sweepSeeds = 8

// smallSweep runs three sweeps per op through one
// sweep.Runner{Parallel: GOMAXPROCS} and renders each: lowerbound on
// its default L grid, table2 and table1 at size 1024, each under
// qrqw, crcw and erew × 8 seeds — 168 grid points and 312 cells of
// small work on sessions of up to 1<<20 words.
type smallSweep struct {
	pool   *core.SessionPool
	runner *sweep.Runner
	jobs   []sweepJob
	stats  machine.Stats // charged totals of one op, over the cells that succeed

	acc    *sweepAcc // layer counters of the traced window; nil otherwise
	mu     sync.Mutex
	points []observedPoint
}

type sweepJob struct {
	e          spec.Experiment
	plan       sweep.Plan
	text       string // the Parallel-1 reference rendering
	violations string // the reference's violation set
}

type observedPoint struct {
	pt   sweep.Point
	wall time.Duration
	end  time.Time
}

type sweepAcc struct {
	points, cells, violations int
	pointWall, render         time.Duration
}

func setupSmallSweep(seed uint64) (instance, error) {
	s := &smallSweep{pool: core.NewSessionPool()}
	s.pool.Workers = 1
	sm := splitmix64(seed)
	seeds := make([]uint64, sweepSeeds)
	for i := range seeds {
		seeds[i] = sm.next()
	}
	ref := &sweep.Runner{Parallel: 1, Pool: s.pool}
	for _, p := range []sweep.Plan{
		{Experiment: "lowerbound"},
		{Experiment: "table2", Sizes: []int{1024}},
		{Experiment: "table1", Sizes: []int{1024}},
	} {
		e, ok := exp.Find(p.Experiment)
		if !ok {
			s.close()
			return nil, fmt.Errorf("experiment %q is not in the registry", p.Experiment)
		}
		p.Seeds = seeds
		plan, err := sweep.Normalize(e, p)
		if err != nil {
			s.close()
			return nil, err
		}
		res := ref.Run(e, plan)
		if err := sweepErrors(res); err != nil {
			s.close()
			return nil, fmt.Errorf("reference sweep: %w", err)
		}
		s.jobs = append(s.jobs, sweepJob{e: e, plan: plan, text: sweep.RenderText(res), violations: violationSet(res)})
		for _, pt := range res.Points {
			s.stats = s.stats.Add(machine.Stats{Ops: pt.Ops, Steps: pt.Steps, Time: pt.Time, MaxContention: pt.MaxKappa})
		}
	}
	s.runner = &sweep.Runner{Parallel: runtime.GOMAXPROCS(0), Pool: s.pool}
	for range warmupOps {
		if _, err := s.op(nil, 0, ""); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func (s *smallSweep) charged() string { return chargedLine(s.stats) }

func (s *smallSweep) close() { s.pool.Close() }

// sweepErrors fails on any cell error other than a model violation:
// violations are the sweep's comparative data.
func sweepErrors(res sweep.Result) error {
	for _, pt := range res.Points {
		if pt.Errors > 0 {
			return fmt.Errorf("%s %s n=%d seed=%d: %d cells failed other than by a model violation",
				res.Experiment, pt.Model, pt.Size, pt.Seed, pt.Errors)
		}
	}
	return nil
}

// violationSet lists every violating cell of a sweep with its
// deterministic description.
func violationSet(res sweep.Result) string {
	var b strings.Builder
	for _, pt := range res.Points {
		for _, c := range pt.Cells {
			if c.Err != "" {
				fmt.Fprintf(&b, "%s|%d|%d|%s|%s\n", pt.Model, pt.Size, pt.Seed, c.Cell, c.Err)
			}
		}
	}
	return b.String()
}

// op runs and renders the three sweeps and verifies each rendering,
// including its exact violation set, against the set-up reference.
func (s *smallSweep) op(tr *tracer, opID int64, trace string) (int64, error) {
	var pram int64
	for _, j := range s.jobs {
		start := time.Now()
		res := s.runner.Run(j.e, j.plan)
		ran := time.Now()
		text := sweep.RenderText(res)
		end := time.Now()
		if err := sweepErrors(res); err != nil {
			return 0, err
		}
		if text != j.text {
			return 0, fmt.Errorf("sweep %s: rendered artifact differs from the Parallel-1 reference", j.e.Name)
		}
		if violationSet(res) != j.violations {
			return 0, fmt.Errorf("sweep %s: violation set differs from the Parallel-1 reference", j.e.Name)
		}
		for _, pt := range res.Points {
			pram += pt.Ops
		}
		if s.acc != nil {
			s.traceSweep(tr, opID, trace, j.e.Name, start, ran, end)
		}
	}
	return pram, nil
}

// observe is the runner's PointObserver in the traced window.
func (s *smallSweep) observe(pt sweep.Point, wall time.Duration) {
	now := time.Now()
	s.mu.Lock()
	s.points = append(s.points, observedPoint{pt, wall, now})
	s.mu.Unlock()
}

// traceSweep records one plan span (sweep.Runner.Run plus RenderText)
// with a child per grid point (start = observer time − wall) and one
// for the rendering, and folds the plan into the layer counters.
func (s *smallSweep) traceSweep(tr *tracer, opID int64, trace, name string, start, ran, end time.Time) {
	planID := tr.add(opID, "sweep.plan."+name, trace, start, end)
	s.mu.Lock()
	points := s.points
	s.points = nil
	s.mu.Unlock()
	a := s.acc
	for _, p := range points {
		tr.add(planID, "sweep.point", trace, p.end.Add(-p.wall), p.end)
		a.points++
		a.cells += len(p.pt.Cells)
		a.violations += p.pt.Violations
		a.pointWall += p.wall
	}
	tr.add(planID, "sweep.render", trace, ran, end)
	a.render += end.Sub(ran)
}

func (s *smallSweep) measure(d time.Duration, tr *tracer) window {
	if tr == nil {
		return closedLoop(d, nil, s.op)
	}
	s.acc = &sweepAcc{}
	s.runner.PointObserver = s.observe
	before, exBefore := s.pool.StatsLive()
	w := closedLoop(d, tr, s.op)
	after, exAfter := s.pool.StatsLive()
	s.runner.PointObserver = nil
	a := s.acc
	s.acc = nil

	ops := float64(len(w.lat))
	w.layer = make(map[string]float64)
	chargedLayer(w.layer, s.stats)
	execLayer(w.layer, exAfter.Sub(exBefore), ops)
	poolLayer(w.layer, before, after, ops)
	w.layer["spec.cells"] = float64(a.cells) / ops
	w.layer["sweep.points"] = float64(a.points) / ops
	w.layer["sweep.point_s"] = a.pointWall.Seconds() / ops
	w.layer["sweep.traced_steps"] = float64(s.stats.Steps)
	w.layer["sweep.violations"] = float64(a.violations) / ops
	w.layer["sweep.render_s"] = a.render.Seconds() / ops
	return w
}
