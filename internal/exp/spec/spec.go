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
	requested []int // memWords of each Session call, in acquisition order
	meas      []Measurement
	acquireNs int64 // summed wall time spent acquiring sessions
	clock     int64 // step clock shared by the profiled sessions
}

// Session acquires a pooled session with the given model, minimum memory
// capacity, and seed — profiled when the runner is profiling, and with
// the model replaced when the cell's task carries a model override (the
// sweep layer's mechanism for charging the same cells under a different
// contention rule). A profiled session's steps tick the cell's step
// clock, so the traces of all its sessions merge in execution order. It
// is released back to the pool when the cell
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
		s.Machine().SetStepClock(&c.clock)
	} else {
		s = c.pool.Acquire(model, memWords, seed)
	}
	c.acquireNs += int64(time.Since(t0))
	c.sessions = append(c.sessions, s)
	c.requested = append(c.requested, memWords)
	return s
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
	// acquired (steps settled, descriptor traffic). Every step runs on
	// the goroutine that issues it, so the counters are determined by
	// the cell's program and safe to embed in reproducible documents.
	// MarshalJSON emits only its two descriptor counts, the shape the
	// JSON artifacts pin.
	Exec machine.ExecStats
	// Footprints holds one record per session the cell acquired, in
	// acquisition order: the words it requested and the most it had
	// allocated at once. Both are functions of the cell's program, like
	// the charged stats, but they describe the host's memory, not the
	// simulated run, so MarshalJSON leaves them out and no artifact
	// renders them.
	Footprints []Footprint
	// Charges holds one outcome per model the task lists in Charge, in
	// that order, derived from the cell's step traces; like Footprints,
	// MarshalJSON leaves it out.
	Charges []Charge
	Err     error
}

// Charge is a cell's outcome under a model derived from the traced run
// that executed it (Definition 2.3's rules applied to each step's
// shape). The cell ends at the first step the model forbids, in the
// order the cell's sessions executed their steps; Err is then that
// step's *machine.ViolationError, carrying Model, Step, Kind and, for
// read and write violations, Count, but no Addr (the trace has none).
// If the model forbids no step, the cell ends as the executed one did:
// Err is its error, or else Time is the sum of the model's step costs
// over every session.
type Charge struct {
	Model machine.Model
	Time  int64
	Err   error
}

// charge derives the outcome under model mo of a cell whose sessions'
// traces, ticked by one step clock, are traces, and whose executed run
// ended with cellErr.
func charge(mo machine.Model, traces [][]machine.StepTrace, cellErr error) Charge {
	var first *machine.ViolationError
	var firstTick, time int64
	for _, tr := range traces {
		for _, t := range tr {
			if first != nil && t.Tick > firstTick {
				break
			}
			if kind, count := mo.Violation(t.MaxOps, t.ReadCont, t.WriteCont); kind != "" {
				first = &machine.ViolationError{Model: mo, Step: t.Step, Kind: kind, Count: count}
				firstTick = t.Tick
				break
			}
			time += mo.StepCost(t.MaxOps, t.ReadCont, t.WriteCont)
		}
	}
	switch {
	case first != nil:
		return Charge{Model: mo, Err: first}
	case cellErr != nil:
		return Charge{Model: mo, Err: cellErr}
	}
	return Charge{Model: mo, Time: time}
}

// Footprint is one session's memory record within a cell: its model,
// the capacity the cell requested in words, and the machine's
// allocation high-water mark (machine.Machine.PeakAllocated) when the
// cell finished. A request below Peak makes the session grow mid-cell.
type Footprint struct {
	Model     machine.Model
	Requested int
	Peak      int
}

// MarshalJSON renders the result with the error (if any) as a string.
// bulk_descriptors counts the bulk access descriptors the cell's
// sessions recorded, and expanded_descriptors how many of them settled
// by element expansion instead of analytically. Like every engine
// counter they depend on the cell's program alone; the other Exec
// counters stay out of the JSON.
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
	// and closes it on return.
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
// models the cell pins). Charge lists models to derive the cell's
// outcome under from its step traces (CellResult.Charges); it needs a
// profiling runner, and is sound for a model that agrees with every
// session's executed model on HasUnitScan.
type Task struct {
	Cell   Cell
	Seed   uint64
	Model  *machine.Model
	Charge []machine.Model
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
		var traces [][]machine.StepTrace
		for i, s := range ctx.sessions {
			// Aggregate before Release: releasing resets the machine,
			// which clears its trace, its allocation peak, and disables
			// profiling.
			out.Footprints = append(out.Footprints, Footprint{
				Model: s.Model(), Requested: ctx.requested[i], Peak: s.Machine().PeakAllocated(),
			})
			if r.Profile {
				tr := s.StepTraces()
				traces = append(traces, tr)
				out.Profiles = append(out.Profiles, profile.FromTrace(s.Model().String(), tr, max(hotK, 1)))
			}
			out.Exec = out.Exec.Add(s.ExecStats())
			pool.Release(s)
		}
		out.Measurements = ctx.meas
		if p := recover(); p != nil {
			out.Err = fmt.Errorf("cell panicked: %v", p)
		}
		for _, mo := range t.Charge {
			out.Charges = append(out.Charges, charge(mo, traces, out.Err))
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
