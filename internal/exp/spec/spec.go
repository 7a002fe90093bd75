// Package spec turns the experiment harness from imperative
// table-builders into data: an Experiment declares its measurement
// Cells, and a Runner executes cells over a bounded worker pool of
// reusable sessions (core.SessionPool).
//
// The determinism contract: a cell's behavior is a pure function of
// (cell definition, base seed). Cells derive every random stream they
// use from the base seed and their own parameters — never from
// execution order, a shared counter, or the session that happens to
// serve them — and pooled sessions are Reset+Reseeded so that a reused
// machine replays a fresh one bit-for-bit. Charged PRAM stats are
// therefore bit-identical whatever the Runner's parallelism, and
// results are returned in cell declaration order, so rendered artifacts
// are byte-identical between Parallel=1 and Parallel=N.
package spec

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/machine"
	"lowcontend/internal/profile"
)

// Measurement is one charged observation recorded by a cell: a group
// (the problem or algorithm it belongs to), an optional series within
// the group (e.g. "QRQW" vs "EREW" legs of a comparison), the problem
// size, and the machine's charged stats. Note carries free-form artifact
// text for figure-style cells.
type Measurement struct {
	Group  string        `json:"group,omitempty"`
	Series string        `json:"series,omitempty"`
	N      int           `json:"n,omitempty"`
	Stats  machine.Stats `json:"stats,omitzero"`
	Note   string        `json:"note,omitempty"`
}

// Cell is one independently runnable unit of an experiment (one table
// row, one curve point). Run records measurements through the Ctx; any
// error (or panic) is attributed to this cell alone.
type Cell struct {
	Name string
	Run  func(*Ctx) error
}

// Ctx is a cell's window onto the runner: it hands out sessions from
// the shared pool (released automatically when the cell finishes) and
// collects the cell's measurements.
type Ctx struct {
	// Seed is the experiment's base seed. Cells must derive all
	// randomness from it and their own parameters so that behavior is
	// independent of execution order.
	Seed uint64

	pool      *core.SessionPool
	model     *machine.Model // non-nil: override every requested model
	profiled  bool           // profile every acquired session
	hotK      int            // hot-cell top-K when profiling (0 = none)
	sessions  []*core.Session
	meas      []Measurement
	acquireNs int64 // summed wall time spent acquiring sessions
}

// Session acquires a pooled session with the given model, memory
// capacity, and seed — profiled when the runner is profiling, and with
// the model replaced when the cell's task carries a model override (the
// sweep layer's mechanism for charging the same cells under a different
// contention rule). It is released back to the pool when the cell
// finishes; do not retain it (or any DeviceSlice bound to it) beyond
// the cell's Run.
func (c *Ctx) Session(model machine.Model, memWords int, seed uint64) *core.Session {
	if c.model != nil {
		model = *c.model
	}
	t0 := time.Now()
	var s *core.Session
	if c.profiled {
		s = c.pool.AcquireProfiled(model, memWords, seed, c.hotK)
	} else {
		s = c.pool.Acquire(model, memWords, seed)
	}
	c.acquireNs += int64(time.Since(t0))
	c.sessions = append(c.sessions, s)
	return s
}

// Model resolves the model a Session call would actually use: the
// task's override when one is set, the cell's own choice otherwise.
// Cells that branch on the model (e.g. to pick a scan-aware algorithm)
// must consult it instead of their pinned constant.
func (c *Ctx) Model(def machine.Model) machine.Model {
	if c.model != nil {
		return *c.model
	}
	return def
}

// Record appends a measurement to the cell's results.
func (c *Ctx) Record(m Measurement) { c.meas = append(c.meas, m) }

// Note records a free-form artifact line.
func (c *Ctx) Note(format string, args ...any) {
	c.meas = append(c.meas, Measurement{Note: fmt.Sprintf(format, args...)})
}

// CellResult is one cell's outcome: its measurements in recording
// order, or the error that stopped it. Index is the cell's position in
// the runner's task list — for Run, the experiment's declaration
// order. When the run was profiled, Profiles holds one aggregated
// profile per session the cell acquired, in acquisition order (failed
// cells keep their partial profiles for inspection, but renderers skip
// them, mirroring Measurements).
type CellResult struct {
	Cell         string
	Index        int
	Measurements []Measurement
	Profiles     []*profile.Profile
	// Exec aggregates the engine counters of every session the cell
	// acquired (dispatch routing, settlement paths, cursor utilization,
	// descriptor traffic). MarshalJSON emits only its two descriptor
	// counts, which depend on the program alone: the rest depend on the
	// worker count at gang widths > 1, which would break the renderer's
	// parallel-invariant JSON artifacts. All of it is deterministic — and
	// safe to embed in reproducible documents — only when the pool pins
	// Workers to 1, as the daemon's pool does.
	Exec machine.ExecStats
	Err  error
}

// MarshalJSON renders the result with the error (if any) as a string.
// bulk_descriptors counts the bulk access descriptors the cell's
// sessions recorded, and expanded_descriptors how many of them settled
// by element expansion instead of analytically.
func (r CellResult) MarshalJSON() ([]byte, error) {
	var errText string
	if r.Err != nil {
		errText = r.Err.Error()
	}
	return json.Marshal(struct {
		Cell            string             `json:"cell"`
		Index           int                `json:"index"`
		Measurements    []Measurement      `json:"measurements,omitempty"`
		Profiles        []*profile.Profile `json:"profiles,omitempty"`
		BulkDescriptors int64              `json:"bulk_descriptors,omitempty"`
		BulkExpanded    int64              `json:"expanded_descriptors,omitempty"`
		Error           string             `json:"error,omitempty"`
	}{r.Cell, r.Index, r.Measurements, r.Profiles, r.Exec.BulkDescriptors, r.Exec.BulkExpanded, errText})
}

// Result is one experiment run: per-cell results in declaration order.
type Result struct {
	Experiment string       `json:"experiment"`
	Cells      []CellResult `json:"cells"`
}

// FirstErr returns the first failed cell's error (in declaration
// order), annotated with the experiment and cell name, or nil if every
// cell succeeded.
func (r Result) FirstErr() error {
	for _, c := range r.Cells {
		if c.Err != nil {
			return fmt.Errorf("%s/%s: %w", r.Experiment, c.Cell, c.Err)
		}
	}
	return nil
}

// Measurements flattens the per-cell measurements in declaration order.
// Failed cells are skipped entirely — a cell that errored or panicked
// after recording part of its data must not leak partial measurements
// into rendered artifacts (its partials remain inspectable on Cells).
func (r Result) Measurements() []Measurement {
	var out []Measurement
	for _, c := range r.Cells {
		if c.Err != nil {
			continue
		}
		out = append(out, c.Measurements...)
	}
	return out
}

// Experiment is a declarative artifact spec: a name and description for
// the registry, the sizes the paper uses, a Cells factory producing the
// measurement cells for a size sweep, a Render turning a Result into
// the artifact's text form, and an optional Check asserting the
// paper's expected shape (orderings, growth) on a Result at paper
// sizes.
type Experiment struct {
	Name         string
	Description  string
	DefaultSizes []int // nil when the experiment is not size-parameterized
	Cells        func(sizes []int) []Cell
	Render       func(Result) string
	Check        func(Result) error
}

// Runner executes experiment cells over a bounded worker pool of
// reusable sessions.
type Runner struct {
	// Parallel bounds the number of cells executing concurrently.
	// <= 0 means GOMAXPROCS.
	Parallel int
	// Pool supplies sessions. When nil, each Run uses a private pool
	// (with step-level workers bounded to 1 when Parallel > 1, so
	// session-level parallelism is not multiplied by step-level
	// parallelism) and closes it on return.
	Pool *core.SessionPool
	// CellHook, when non-nil, is called immediately before
	// (start=true) and after (start=false) each cell executes — the
	// after call fires even when the cell errors or panics. Cells may
	// run concurrently, so the hook must be safe for concurrent use.
	// Servers use it to gauge in-flight cells; it must not block.
	CellHook func(cell string, start bool)
	// CellObserver, when non-nil, receives each cell's finished result
	// and wall-clock timing, after the result (measurements, exec
	// telemetry, error) is fully assembled. Like CellHook it may be
	// called concurrently and must not block; the daemon's job event log
	// and the CLI's -timing view consume it. The CellResult is passed by value — observers must
	// not mutate the slices it shares with the runner's Result.
	CellObserver func(res CellResult, t CellTiming)
	// Profile enables per-session step tracing with hot-cell
	// attribution: every session a cell acquires is profiled, and the
	// aggregated profiles attach to the cell's result in acquisition
	// order. Profiling only observes — charged stats, measurements, and
	// rendered artifacts are identical with it on or off — and pooled
	// sessions are un-profiled on release, so a shared pool serves
	// profiled and unprofiled runs interchangeably.
	Profile bool
	// ProfileCells bounds both the engine's per-step hot-cell top-K and
	// the per-profile hot-cell ranking (0 = profile.DefaultHotCells).
	// Negative disables hot-cell attribution entirely: sessions are
	// traced — phases and kappa histograms still aggregate — without
	// paying the per-access candidate scans (the sweep layer profiles
	// every grid point this way).
	ProfileCells int
	// Model, when non-nil, overrides the contention model of every
	// session cells acquire through Ctx.Session: the experiment's cells
	// run unchanged but are charged (and policed) under this model's
	// Definition 2.3 rules instead of the models they pin. Cells whose
	// access patterns the override forbids fail with the machine's
	// ViolationError, attributed per cell like any other error — which
	// is itself measurement: the sweep layer renders those cells as
	// violation marks in its comparative artifacts.
	Model *machine.Model
}

// Run executes every cell of e for the given size sweep and base seed
// and returns per-cell results in declaration order. Cell errors and
// panics are recorded per cell, never aborting sibling cells.
func (r *Runner) Run(e Experiment, sizes []int, seed uint64) Result {
	cells := e.Cells(sizes)
	tasks := make([]Task, len(cells))
	for i, c := range cells {
		tasks[i] = Task{Cell: c, Seed: seed, Model: r.Model}
	}
	return Result{Experiment: e.Name, Cells: r.RunTasks(tasks)}
}

// Task is one schedulable cell, bound to the base seed its Ctx carries
// and the model override its sessions are charged under (nil: the
// models the cell pins).
type Task struct {
	Cell  Cell
	Seed  uint64
	Model *machine.Model
}

// RunTasks is the runner's one scheduler: it executes tasks over a
// bounded worker pool and returns their results in task order, each
// result's Index its task's position. Each task carries its own seed
// and model override; Runner.Model is ignored here.
func (r *Runner) RunTasks(tasks []Task) []CellResult {
	out := make([]CellResult, len(tasks))
	par := r.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(tasks) {
		par = len(tasks)
	}
	pool := r.Pool
	if pool == nil {
		pool = core.NewSessionPool()
		if par > 1 {
			pool.Workers = 1
		}
		defer pool.Close()
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i] = r.runCell(pool, tasks[i], i)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// CellTiming is the wall-clock side of one executed cell, reported to
// CellObserver separately from the deterministic CellResult: total
// cell duration and the portion spent acquiring pooled sessions (the
// remainder is simulation proper).
type CellTiming struct {
	Wall    time.Duration
	Acquire time.Duration
}

func (r *Runner) runCell(pool *core.SessionPool, t Task, index int) (out CellResult) {
	c := t.Cell
	start := time.Now()
	acquire := new(int64)
	if r.CellObserver != nil {
		// Registered first so it runs last: the aggregation defer below
		// must finish assembling out before the observer reads it.
		defer func() {
			r.CellObserver(out, CellTiming{
				Wall:    time.Since(start),
				Acquire: time.Duration(*acquire),
			})
		}()
	}
	if r.CellHook != nil {
		r.CellHook(c.Name, true)
		defer r.CellHook(c.Name, false)
	}
	hotK := 0
	if r.Profile {
		switch {
		case r.ProfileCells == 0:
			hotK = profile.DefaultHotCells
		case r.ProfileCells > 0:
			hotK = r.ProfileCells
		}
	}
	ctx := &Ctx{Seed: t.Seed, pool: pool, model: t.Model, profiled: r.Profile, hotK: hotK}
	acquire = &ctx.acquireNs
	out = CellResult{Cell: c.Name, Index: index}
	defer func() {
		for _, s := range ctx.sessions {
			// Aggregate before Release: releasing resets the machine,
			// which clears its trace and disables profiling.
			if r.Profile {
				out.Profiles = append(out.Profiles,
					profile.FromTrace(s.Model().String(), s.StepTraces(), max(hotK, 1)))
			}
			out.Exec = out.Exec.Add(s.ExecStats())
			pool.Release(s)
		}
		out.Measurements = ctx.meas
		if p := recover(); p != nil {
			out.Err = fmt.Errorf("cell panicked: %v", p)
		}
	}()
	out.Err = c.Run(ctx)
	return out
}

// RenderProfiles renders a profiled run's per-cell profiles as one
// deterministic text report. Cells render in declaration order, each
// acquired session in acquisition order; failed cells are skipped
// entirely (their partial profiles stay inspectable on Cells), exactly
// as Measurements skips them for artifacts. The CLI's profile
// subcommand and the daemon's /v1/runs/{id}/profile endpoint both serve
// this function's bytes, which is what makes them byte-identical.
func RenderProfiles(res Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Profile — %s\n", res.Experiment)
	for _, c := range res.Cells {
		if c.Err != nil {
			continue
		}
		for i, p := range c.Profiles {
			fmt.Fprintf(&b, "\n=== %s · session %d ===\n", c.Cell, i+1)
			b.WriteString(p.Text())
		}
	}
	return b.String()
}
