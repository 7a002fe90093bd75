package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// paperRegen regenerates all five builtin artifacts at their default
// sizes per op, in a seeded order, through one spec.Runner{Parallel: GOMAXPROCS} over one
// shared pool with Workers 1 — the CLI's default configuration.
type paperRegen struct {
	order  *rand.Rand // shuffles the experiments of each pass
	pool   *core.SessionPool
	runner *spec.Runner
	exps   []spec.Experiment
	ref    []paperRef
	stats  machine.Stats // charged totals of one pass

	acc   *paperAcc // layer counters of the traced window; nil otherwise
	mu    sync.Mutex
	cells []observedCell // cells finished in the current Runner.Run
}

// paperRef is one experiment's Parallel-1 reference: rendered bytes and
// the charged stats of every cell's measurements.
type paperRef struct {
	text  string
	cells [][]machine.Stats
}

type observedCell struct {
	res spec.CellResult
	t   spec.CellTiming
	end time.Time
}

type paperAcc struct {
	cells                      int
	cellWall, acquire, runWall time.Duration
	groups                     map[string]time.Duration
	exec                       machine.ExecStats
}

// paperSeed is the base seed every pass regenerates the artifacts from:
// the CLI's default -seed, so a pass is exactly `lowcontend all`. The
// seed argument shuffles the order of the experiments within each pass
// instead. A seed-dependent base seed would make the work itself vary:
// Table I's random permutation at n=65536 is a Las Vegas algorithm
// whose restarts each add about 23M charged ops and a third of a pass's
// wall time, so passes at different base seeds charge 120M–235M ops,
// and no bound on op time could hold across seeds.
const paperSeed = 1

func setupPaperRegen(seed uint64) (instance, error) {
	p := &paperRegen{pool: core.NewSessionPool(), exps: exp.Registry(),
		order: rand.New(rand.NewPCG(seed, 0))}
	p.pool.Workers = 1
	if err := p.reference(); err != nil {
		p.close()
		return nil, fmt.Errorf("reference render: %w", err)
	}
	p.runner = &spec.Runner{Parallel: runtime.GOMAXPROCS(0), Pool: p.pool}
	for range warmupOps {
		if _, err := p.op(nil, 0, ""); err != nil {
			p.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return p, nil
}

// reference renders every artifact at Parallel 1.
func (p *paperRegen) reference() error {
	ref := &spec.Runner{Parallel: 1, Pool: p.pool}
	for _, e := range p.exps {
		res := ref.Run(e, e.DefaultSizes, paperSeed)
		if err := checkRun(e, res); err != nil {
			return err
		}
		p.ref = append(p.ref, paperRef{text: e.Render(res), cells: cellStats(res)})
		p.stats = p.stats.Add(chargedStats(res))
	}
	return nil
}

func (p *paperRegen) charged() string { return chargedLine(p.stats) }

func (p *paperRegen) close() { p.pool.Close() }

// op regenerates every artifact once and verifies it against the
// reference: each Check passes, and the rendered bytes and every cell's
// charged stats are equal.
func (p *paperRegen) op(tr *tracer, opID int64, trace string) (int64, error) {
	var pram int64
	for _, i := range p.order.Perm(len(p.exps)) {
		e := p.exps[i]
		start := time.Now()
		res := p.runner.Run(e, e.DefaultSizes, paperSeed)
		end := time.Now()
		if err := checkRun(e, res); err != nil {
			return 0, err
		}
		if e.Render(res) != p.ref[i].text {
			return 0, fmt.Errorf("%s: rendered artifact differs from the Parallel-1 reference", e.Name)
		}
		if !slices.EqualFunc(cellStats(res), p.ref[i].cells, slices.Equal) {
			return 0, fmt.Errorf("%s: per-cell charged stats differ from the Parallel-1 reference", e.Name)
		}
		pram += chargedStats(res).Ops
		if p.acc != nil {
			p.traceRun(tr, opID, trace, e.Name, res, start, end)
		}
	}
	return pram, nil
}

// observe is the runner's CellObserver in the traced window.
func (p *paperRegen) observe(res spec.CellResult, t spec.CellTiming) {
	now := time.Now()
	p.mu.Lock()
	p.cells = append(p.cells, observedCell{res, t, now})
	p.mu.Unlock()
}

// traceRun records one Runner.Run span with a child per cell (start =
// observer time − Wall) and a grandchild for the cell's summed session
// acquisition, placed at the cell's start, and folds the run into the
// layer counters.
func (p *paperRegen) traceRun(tr *tracer, opID int64, trace, name string, res spec.Result, start, end time.Time) {
	runID := tr.add(opID, "spec.run."+name, trace, start, end)
	p.mu.Lock()
	cells := p.cells
	p.cells = nil
	p.mu.Unlock()
	a := p.acc
	a.runWall += end.Sub(start)
	for _, c := range res.Cells {
		a.exec = a.exec.Add(c.Exec)
	}
	for _, c := range cells {
		cs := c.end.Add(-c.t.Wall)
		cellID := tr.add(runID, "spec.cell", trace, cs, c.end)
		tr.add(cellID, "core.acquire", trace, cs, cs.Add(c.t.Acquire))
		a.cells++
		a.cellWall += c.t.Wall
		a.acquire += c.t.Acquire
		a.groups[cellMetric(name, c.res.Cell)] += c.t.Wall
	}
}

func (p *paperRegen) measure(d time.Duration, tr *tracer) window {
	if tr == nil {
		return closedLoop(d, nil, p.op)
	}
	p.acc = &paperAcc{groups: make(map[string]time.Duration)}
	p.runner.CellObserver = p.observe
	before := p.pool.Stats()
	w := closedLoop(d, tr, p.op)
	after := p.pool.Stats()
	p.runner.CellObserver = nil
	a := p.acc
	p.acc = nil

	ops := float64(len(w.lat))
	w.layer = make(map[string]float64)
	chargedLayer(w.layer, p.stats)
	execLayer(w.layer, a.exec, ops)
	poolLayer(w.layer, before, after, ops)
	w.layer["core.acquire_s"] = a.acquire.Seconds() / ops
	w.layer["spec.cells"] = float64(a.cells) / ops
	w.layer["spec.cell_wall_s"] = a.cellWall.Seconds() / ops
	w.layer["spec.parallel_efficiency"] = a.cellWall.Seconds() /
		(a.runWall.Seconds() * float64(p.runner.Parallel))
	for k, v := range a.groups {
		w.layer[k] = v.Seconds() / ops
	}
	return w
}
