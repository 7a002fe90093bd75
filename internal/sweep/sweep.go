// Package sweep turns one experiment — builtin registry entry or
// dynamically defined — into a family of scenarios: a declarative Plan
// names the experiment, the contention models to charge it under, the
// problem sizes, and the seeds, and the Runner reduces the full
// cross-product of grid points into comparative artifacts — a
// model×size charged-time matrix with ratios against a baseline model,
// and per-model kappa histograms aggregated through internal/profile.
//
// The models of Definition 2.3 differ only in what a step costs and
// which steps are legal, and the engine consults the model elsewhere
// only through HasUnitScan. So the Runner groups a plan's models into
// execution classes by HasUnitScan and runs each cell once per (class,
// size, seed), under the class's one model if it has one and otherwise
// under the model of its kind that forbids nothing (QRQW or
// scan-QRQW). All cells go as one flat task list onto a spec.Runner
// over a core.SessionPool, and each cell is charged from its step
// traces under every model of its class: the cell ends at the first
// step a model forbids, in execution order across its sessions, and
// otherwise costs the sum of the model's step costs.
//
// The paper's core claim is comparative (the same algorithm charged
// under QRQW vs CRCW vs EREW rules tells the contention story), so a
// model whose rules an experiment's access pattern violates is data,
// not a failure: violating cells are recorded per grid point with a
// deterministic description and rendered as violation marks, while the
// surviving cells still contribute charged time.
//
// Sweeps inherit the registry's determinism contract. Every grid point
// is a pure function of (experiment, model, size, seed): points land in
// plan order whatever the runner's parallelism, per-point reduction
// folds cells in declaration order whatever order they finish in, and
// uses only the engine's parallelism-invariant outputs (charged stats,
// traces, and sanitized violation descriptions — never the violation
// address, which a charge derived from a trace does not have), so a
// sweep's Result, text artifact, and JSON form are bit-identical at
// any Parallel, and identical to running every model separately.
package sweep

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/profile"
)

// DefaultModels is the model list a plan gets when it names none: the
// paper's headline comparison — queued contention against free
// concurrent access against exclusive access.
var DefaultModels = []string{
	machine.QRQW.String(),
	machine.CRCW.String(),
	machine.EREW.String(),
}

// Plan declares one sweep: the registry experiment to rerun, the
// contention models to charge it under (the first is the ratio
// baseline), the problem sizes, and the base seeds. The grid is the
// full cross-product: len(Models) × len(Sizes) × len(Seeds) experiment
// runs, each at a single size.
type Plan struct {
	Experiment string   `json:"experiment"`
	Models     []string `json:"models"`
	Sizes      []int    `json:"sizes"`
	Seeds      []uint64 `json:"seeds"`
}

// Points returns the grid size of a normalized plan.
func (p Plan) Points() int { return len(p.Models) * len(p.Sizes) * len(p.Seeds) }

// ParseModels resolves a comma-separated model list (as the CLI's
// -models flag passes it) into canonical model names, refusing unknown
// names, empty entries, and duplicates.
func ParseModels(csv string) ([]string, error) {
	return CanonicalModels(strings.Split(csv, ","))
}

// CanonicalModels maps model names (matched case-insensitively, as
// machine.ParseModel does) to their canonical forms, refusing unknown
// names and duplicates. The input order is preserved — the first model
// is the plan's ratio baseline.
func CanonicalModels(names []string) ([]string, error) {
	out := make([]string, 0, len(names))
	seen := make(map[machine.Model]bool, len(names))
	for _, name := range names {
		m, ok := machine.ParseModel(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		if seen[m] {
			return nil, fmt.Errorf("duplicate model %q", m)
		}
		seen[m] = true
		out = append(out, m.String())
	}
	return out, nil
}

// Normalize validates a plan against the experiment it names and fills
// defaults: empty Models means DefaultModels, empty Sizes the
// experiment's default sizes, empty Seeds seed 1. The experiment must
// be size-parameterized — a sweep's matrix axis is the size — and model
// names canonicalize case-insensitively. CLI and daemon share this
// validation, so both refuse exactly the same plans.
func Normalize(e spec.Experiment, p Plan) (Plan, error) {
	if p.Experiment == "" {
		p.Experiment = e.Name
	}
	if p.Experiment != e.Name {
		return p, fmt.Errorf("plan experiment %q does not match %q", p.Experiment, e.Name)
	}
	if e.DefaultSizes == nil {
		return p, fmt.Errorf("experiment %q is not size-parameterized; sweeps need a size axis", e.Name)
	}
	var err error
	if len(p.Models) == 0 {
		p.Models = append([]string(nil), DefaultModels...)
	} else if p.Models, err = CanonicalModels(p.Models); err != nil {
		return p, err
	}
	if len(p.Sizes) == 0 {
		p.Sizes = append([]int(nil), e.DefaultSizes...)
	}
	for _, n := range p.Sizes {
		if n < 1 {
			return p, fmt.Errorf("size %d out of range (must be >= 1)", n)
		}
	}
	if len(p.Seeds) == 0 {
		p.Seeds = []uint64{1}
	}
	return p, nil
}

// CellOutcome is one experiment cell's contribution to a grid point:
// its charged time (summed over every session the cell acquired, via
// the profile layer's charged-time invariant), or the deterministic
// description of why it failed.
type CellOutcome struct {
	Cell string `json:"cell"`
	Time int64  `json:"time,omitzero"`
	Err  string `json:"error,omitempty"`
}

// Point is one executed grid point: the (model, size, seed) coordinate
// and the reduction of its experiment run — total charged time, step
// and operation counts, the maximum per-step contention, the merged
// kappa histogram, and per-cell outcomes. Failed cells contribute to
// Violations/Errors and their Err text, never to the aggregates.
type Point struct {
	Model string `json:"model"`
	Size  int    `json:"size"`
	Seed  uint64 `json:"seed"`

	Time       int64            `json:"time"`
	Steps      int64            `json:"steps"`
	Ops        int64            `json:"ops"`
	MaxKappa   int64            `json:"max_kappa"`
	Cells      []CellOutcome    `json:"cells"`
	Violations int              `json:"violations,omitzero"` // cells that hit a model violation
	Errors     int              `json:"errors,omitzero"`     // cells that failed any other way
	Histogram  []profile.Bucket `json:"histogram,omitempty"`
}

// Result is one executed sweep: the normalized plan echo plus every
// grid point in plan order (model-major, then size, then seed).
type Result struct {
	Experiment string   `json:"experiment"`
	Baseline   string   `json:"baseline"`
	Models     []string `json:"models"`
	Sizes      []int    `json:"sizes"`
	Seeds      []uint64 `json:"seeds"`
	Points     []Point  `json:"points"`
}

// Runner executes sweep grid points over a shared session pool.
type Runner struct {
	// Parallel bounds the number of cells executing concurrently,
	// across all grid points. <= 0 means GOMAXPROCS.
	Parallel int
	// Pool supplies sessions. When nil, each Run uses a private pool
	// and closes it on return.
	Pool *core.SessionPool
	// CellHook is forwarded to the spec.Runner executing the cells;
	// servers gauge in-flight cells with it. Must be concurrency-safe.
	CellHook func(cell string, start bool)
	// PointObserver, when non-nil, receives each finished grid point
	// (fully reduced, by value) and its wall-clock duration, from its
	// first cell's start to its last cell's end. Points may finish
	// concurrently, so the observer must be safe for concurrent use and
	// must not block; the daemon's job event log consumes it.
	PointObserver func(pt Point, wall time.Duration)
}

// Run executes every grid point of a normalized plan (see Normalize)
// for experiment e and returns the reduced result, points in plan
// order. The plan's models group into execution classes (see classes);
// the grid expands into one flat cell list — class by class, then
// size, seed and declaration index — that one spec.Runner schedules up
// to Parallel at a time. Each cell runs once per (class, size, seed)
// and is charged from its step traces under every model of its class;
// the class's points are reduced when its last cell lands.
func (r *Runner) Run(e spec.Experiment, p Plan) Result {
	res := Result{
		Experiment: p.Experiment,
		Models:     p.Models,
		Sizes:      p.Sizes,
		Seeds:      p.Seeds,
		Points:     make([]Point, 0, p.Points()),
	}
	if len(p.Models) > 0 {
		res.Baseline = p.Models[0]
	}
	observe := r.PointObserver
	if observe == nil {
		observe = func(Point, time.Duration) {}
	}
	for _, name := range p.Models {
		for _, size := range p.Sizes {
			for _, seed := range p.Seeds {
				res.Points = append(res.Points, Point{Model: name, Size: size, Seed: seed})
			}
		}
	}
	// point returns the grid point of plan model i at size and seed
	// index j.
	grid := len(p.Sizes) * len(p.Seeds)
	point := func(i, j int) *Point { return &res.Points[i*grid+j] }
	var tasks []spec.Task
	var folds []*pointFold // folds[i] reduces task i's grid points
	for _, c := range classes(p.Models) {
		for j := range grid {
			size := p.Sizes[j/len(p.Seeds)]
			pts := make([]*Point, len(c.models))
			for k, i := range c.models {
				pts[k] = point(i, j)
			}
			cells := e.Cells([]int{size})
			if len(cells) == 0 {
				for _, pt := range pts {
					observe(*pt, 0)
				}
				continue
			}
			f := &pointFold{pts: pts, first: len(tasks), cells: make([]spec.CellResult, len(cells)),
				starts: make([]time.Time, len(cells))}
			f.left.Store(int32(len(cells)))
			for _, cell := range cells {
				tasks = append(tasks, spec.Task{Cell: cell, Seed: p.Seeds[j%len(p.Seeds)], Model: &c.exec, Charge: c.charge})
				folds = append(folds, f)
			}
		}
	}
	for i, name := range p.Models {
		if _, ok := machine.ParseModel(name); ok {
			continue
		}
		// A caller bug (Normalize canonicalizes), reported per point.
		for j := range grid {
			pt := point(i, j)
			pt.Cells = []CellOutcome{{Cell: "(plan)", Err: fmt.Sprintf("unknown model %q", name)}}
			pt.Errors = 1
			observe(*pt, 0)
		}
	}
	runner := &spec.Runner{
		Parallel:     r.Parallel,
		Pool:         r.Pool,
		Profile:      true,
		ProfileCells: -1,
		CellHook:     r.CellHook,
		CellObserver: func(c spec.CellResult, t spec.CellTiming) {
			if f := folds[c.Index]; f.land(c, t) {
				wall := time.Since(slices.MinFunc(f.starts, time.Time.Compare))
				for _, pt := range f.pts {
					observe(*pt, wall)
				}
			}
		},
	}
	runner.RunTasks(tasks)
	return res
}

// class is one execution class of a plan: plan models that agree on
// HasUnitScan, whose cells therefore execute the same steps up to the
// first one a model forbids. The class's cells run once, under exec,
// and are charged under every model of charge.
type class struct {
	exec   machine.Model
	models []int           // plan indexes of the class's models
	charge []machine.Model // the models themselves, in plan order
}

// classes groups a plan's known models into execution classes, in
// order of first appearance. A class of one model executes under that
// model; a larger class executes under the model of its kind that
// forbids nothing, QRQW or scan-QRQW, so that each of its models can
// stop the run where its own rules would have.
func classes(models []string) []class {
	var out []class
	for i, name := range models {
		m, ok := machine.ParseModel(name)
		if !ok {
			continue
		}
		k := slices.IndexFunc(out, func(c class) bool { return c.exec.HasUnitScan() == m.HasUnitScan() })
		if k < 0 {
			out = append(out, class{exec: m})
			k = len(out) - 1
		} else if m.HasUnitScan() {
			out[k].exec = machine.ScanQRQW
		} else {
			out[k].exec = machine.QRQW
		}
		out[k].models = append(out[k].models, i)
		out[k].charge = append(out[k].charge, m)
	}
	return out
}

// pointFold collects the cell results of one (class, size, seed) as
// they land, in any order and from any worker; the landing that
// completes them reduces the class's grid points.
type pointFold struct {
	pts    []*Point          // by class model
	first  int               // task index of the first cell
	cells  []spec.CellResult // by declaration index
	starts []time.Time       // cell start times, by declaration index
	left   atomic.Int32      // cells not yet landed
}

// land records one finished cell and reports whether it completed the
// fold, in which case each point is reduced in declaration order from
// the cells' charges under its model.
func (f *pointFold) land(c spec.CellResult, t spec.CellTiming) bool {
	i := c.Index - f.first
	f.cells[i], f.starts[i] = c, time.Now().Add(-t.Wall)
	if f.left.Add(-1) != 0 {
		return false
	}
	for k, pt := range f.pts {
		for _, c := range f.cells {
			pt.add(c, c.Charges[k])
		}
	}
	return true
}

// add reduces one cell, charged under the point's model as ch, into the
// point. Time is the charge's; steps, operations, contention and the
// kappa histogram do not depend on the model and come from the
// per-session profiles (traced without hot-cell attribution:
// ProfileCells < 0). Failed cells' partial traces are skipped entirely,
// mirroring how spec.Result.Measurements gates artifacts.
func (pt *Point) add(c spec.CellResult, ch spec.Charge) {
	out := CellOutcome{Cell: c.Cell}
	if ch.Err != nil {
		out.Err = describeErr(ch.Err)
		var ve *machine.ViolationError
		if errors.As(ch.Err, &ve) {
			pt.Violations++
		} else {
			pt.Errors++
		}
		pt.Cells = append(pt.Cells, out)
		return
	}
	out.Time = ch.Time
	for _, pr := range c.Profiles {
		pt.Steps += pr.Steps
		pt.Ops += pr.Ops
		if pr.MaxKappa > pt.MaxKappa {
			pt.MaxKappa = pr.MaxKappa
		}
		pt.Histogram = mergeHistogram(pt.Histogram, pr.Histogram)
	}
	pt.Time += out.Time
	pt.Cells = append(pt.Cells, out)
}

// describeErr renders a cell error deterministically. A ViolationError
// is reported by step index, violation kind, and contention count,
// without its Addr field, which keeps sweep artifacts in their
// established form.
func describeErr(err error) string {
	var ve *machine.ViolationError
	if !errors.As(err, &ve) {
		return err.Error()
	}
	if ve.Kind == "simd-multi-op" {
		return fmt.Sprintf("%s violation at step %d on %s", ve.Kind, ve.Step, ve.Model)
	}
	return fmt.Sprintf("%s violation at step %d on %s (%d-way)", ve.Kind, ve.Step, ve.Model, ve.Count)
}

// mergeHistogram accumulates src into dst. Profile histograms are
// dense from bucket 0 (kappa = 1) upward with fixed per-index ranges,
// so merging is positional.
func mergeHistogram(dst, src []profile.Bucket) []profile.Bucket {
	for i, b := range src {
		if i < len(dst) {
			dst[i].Steps += b.Steps
		} else {
			dst = append(dst, b)
		}
	}
	return dst
}
