package serve

import (
	"context"
	"log/slog"
	"net/http"
	"slices"
	"time"

	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/obs"
	"lowcontend/internal/sweep"
)

// This file implements the per-job event log and the timeline folded
// from it. Every submitted run or sweep logs its lifecycle through
// manager.record — submission, dequeue, cache/coalesce outcomes,
// simulate and render, per-cell (or per-grid-point) spans with engine
// telemetry deltas, finish — and the same call feeds the flight ring,
// the job histograms and the log. GET /v1/runs/{id}/timeline (sweeps
// alike) serves the fold, split in two on purpose:
//
//   - Core is deterministic: for a given submission against the
//     daemon's single-worker session pool it is byte-identical at any
//     job parallelism and any worker count, because it contains only
//     parallel-invariant facts (cell identity, measurement counts,
//     settlement routes, exec counter deltas, lifecycle event order)
//     with spans sorted into declaration/plan order. CI pins it with a
//     golden file.
//   - Timing carries every wall-clock field (timestamps, durations),
//     parallel to Core's span order, and is never byte-compared.

// Timeline is the wire form of GET /v1/{runs,sweeps}/{id}/timeline.
type Timeline struct {
	ID     string         `json:"id"`
	Core   TimelineCore   `json:"core"`
	Timing TimelineTiming `json:"timing"`
}

// TimelineCore is the deterministic half of a timeline.
type TimelineCore struct {
	Kind       string   `json:"kind"` // "run" | "sweep"
	Experiment string   `json:"experiment"`
	RequestID  string   `json:"request_id,omitempty"`
	State      JobState `json:"state"`
	// Via records how the submission was served without simulating:
	// "cache" (artifact cache) or "coalesce" (completed by an identical
	// in-flight leader). Empty for simulated jobs.
	Via    string      `json:"via,omitempty"`
	Error  string      `json:"error,omitempty"`
	Events []string    `json:"events"`
	Cells  []CellSpan  `json:"cells,omitempty"`
	Points []PointSpan `json:"points,omitempty"`
}

// CellSpan is one experiment cell's deterministic span: identity,
// outcome shape, the settlement route its steps took, and the engine
// telemetry delta attributable to the cell's sessions.
type CellSpan struct {
	Cell         string `json:"cell"`
	Index        int    `json:"index"`
	Measurements int    `json:"measurements"`
	// Settlement summarizes the dispatch route of the cell's steps:
	// "serial" (single host goroutine throughout), "fused" (every gang
	// dispatch settled member-locally), "sharded" (every gang dispatch
	// took the sharded path), or "mixed".
	Settlement string            `json:"settlement"`
	Exec       machine.ExecStats `json:"exec"`
	Error      string            `json:"error,omitempty"`
}

// PointSpan is one sweep grid point's deterministic span.
type PointSpan struct {
	Model      string `json:"model"`
	Size       int    `json:"size"`
	Seed       uint64 `json:"seed"`
	Cells      int    `json:"cells"`
	Violations int    `json:"violations"`
	Errors     int    `json:"errors"`
	Time       int64  `json:"time"` // charged time units, summed over the point's cells
}

// TimelineTiming is the wall-clock half of a timeline. Cells and
// Points parallel the Core spans index-for-index.
type TimelineTiming struct {
	Created          time.Time         `json:"created"`
	Started          *time.Time        `json:"started,omitempty"`
	Finished         *time.Time        `json:"finished,omitempty"`
	QueueWaitSeconds float64           `json:"queue_wait_seconds"`
	RenderSeconds    float64           `json:"render_seconds"`
	TotalSeconds     float64           `json:"total_seconds,omitempty"`
	Cells            []CellTimingSpan  `json:"cells,omitempty"`
	Points           []PointTimingSpan `json:"points,omitempty"`
}

// CellTimingSpan is one cell's wall-clock split: total duration, the
// portion spent acquiring pooled sessions, and the remainder
// (simulation proper).
type CellTimingSpan struct {
	Cell            string  `json:"cell"`
	WallSeconds     float64 `json:"wall_seconds"`
	AcquireSeconds  float64 `json:"acquire_seconds"`
	SimulateSeconds float64 `json:"simulate_seconds"`
}

// PointTimingSpan is one grid point's wall-clock duration.
type PointTimingSpan struct {
	Model       string  `json:"model"`
	Size        int     `json:"size"`
	Seed        uint64  `json:"seed"`
	WallSeconds float64 `json:"wall_seconds"`
}

// Job event kinds. The lifecycle kinds are the timeline's Core.Events;
// cell and point events carry one span each. A flight-ring entry
// mirrors every event under the same kind.
const (
	evSubmitted = "submitted"
	evDequeued  = "dequeued"
	evCacheHit  = "cache_hit"
	evCoalesced = "coalesced"
	evSimulated = "simulated"
	evRendered  = "rendered"
	evFinished  = "finished"
	evCell      = "cell"
	evPoint     = "point"
)

// jobEvent is one entry of a job's event log. The log is the job's only
// record of time: JobStatus's timestamps, the timeline and the
// job_failed incident are all folds over it.
type jobEvent struct {
	kind    string
	at      time.Time
	dur     time.Duration // rendered: render time; cell, point: wall time
	acquire time.Duration // cell: session-acquire share of dur
	via     string        // finished: "cache", "coalesce", or "" when simulated
	cell    *CellSpan     // cell events
	point   *PointSpan    // point events
}

// record is the one writer of a job's event log. Besides appending e it
// observes the matching histogram (queue wait on dequeue, cell duration
// per cell, render time on render), mirrors e into the flight ring
// under the same kind, and queues the job's log line (span events at
// debug level). The caller holds m.mu, so the append is published in
// the same critical section as the state change it marks and the ring
// keeps the log's order; it releases the lock with unlock, which writes
// the queued lines once the lock is free.
func (m *manager) record(j *job, e jobEvent) {
	if e.at.IsZero() {
		e.at = time.Now()
	}
	j.log = append(j.log, e)
	level := slog.LevelInfo
	attrs := []slog.Attr{slog.String("job", j.id), slog.String("queue", m.qlabel),
		slog.String("request_id", j.params.requestID)}
	switch e.kind {
	case evSubmitted:
		attrs = append(attrs, slog.String("experiment", j.params.exp.Name))
	case evDequeued:
		m.sobs.queueWait.With(m.qlabel).Observe(e.at.Sub(j.log[0].at))
	case evRendered:
		m.sobs.renderDur.With(m.qlabel).Observe(e.dur)
	case evCell:
		m.sobs.cellDur.With(m.qlabel).Observe(e.dur)
		level = slog.LevelDebug
		attrs = append(attrs, slog.String("cell", e.cell.Cell), slog.String("settlement", e.cell.Settlement),
			slog.Int64("gang_dispatches", e.cell.Exec.GangDispatches),
			slog.Int64("serial_steps", e.cell.Exec.SerialSteps))
	case evPoint:
		level = slog.LevelDebug
		attrs = append(attrs, slog.String("model", e.point.Model), slog.Int("size", e.point.Size),
			slog.Uint64("seed", e.point.Seed))
	case evFinished:
		attrs = append(attrs, slog.String("state", string(j.state())), slog.String("via", e.via),
			slog.String("error", errText(j.out.err)),
			slog.Int64("elapsed_us", e.at.Sub(j.log[0].at).Microseconds()))
	}
	fields := make([]obs.Field, len(attrs))
	for i, a := range attrs {
		if a.Value.Kind() == slog.KindInt64 {
			fields[i] = obs.FInt(a.Key, a.Value.Int64())
		} else {
			fields[i] = obs.FStr(a.Key, a.Value.String())
		}
	}
	m.flight.Record(e.kind, fields...)
	line := slog.NewRecord(e.at, level, "job "+e.kind, 0)
	line.AddAttrs(attrs...)
	m.unlogged = append(m.unlogged, line)
}

// unlock releases m.mu, then writes the log lines record queued under
// it: the logger is caller-supplied code, never run under the lock.
// Each line carries its event's time.
func (m *manager) unlock() {
	lines := m.unlogged
	m.unlogged = nil
	m.mu.Unlock()
	ctx, h := context.Background(), m.log.Handler()
	for _, line := range lines {
		if h.Enabled(ctx, line.Level) {
			h.Handle(ctx, line)
		}
	}
}

// state folds the log into the job's lifecycle state. A log opens with
// submitted and closes with finished; nothing follows finished.
func (j *job) state() JobState {
	if j.log[len(j.log)-1].kind != evFinished {
		if len(j.log) == 1 {
			return JobQueued
		}
		return JobRunning
	}
	if j.out.err != nil {
		return JobFailed
	}
	return JobDone
}

// timing folds the log into the wall-clock half of the job's timeline
// (spans aside) and the route it was served by; JobStatus reads its
// timestamps from the same fold. A job starts when it leaves the queue,
// or — an inline cache hit, which never queues — when it hits the
// cache.
func (j *job) timing() (tm TimelineTiming, via string) {
	created := j.log[0].at
	tm.Created = created.UTC()
	for _, e := range j.log {
		switch e.kind {
		case evDequeued:
			tm.Started = utcPtr(e.at)
			tm.QueueWaitSeconds = e.at.Sub(created).Seconds()
		case evCacheHit:
			if tm.Started == nil {
				tm.Started = utcPtr(e.at)
			}
		case evRendered:
			tm.RenderSeconds += e.dur.Seconds()
		case evFinished:
			tm.Finished, via = utcPtr(e.at), e.via
			tm.TotalSeconds = e.at.Sub(created).Seconds()
		}
	}
	return tm, via
}

func utcPtr(t time.Time) *time.Time {
	t = t.UTC()
	return &t
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// settlementRoute classifies a cell's exec delta into the Settlement
// label of its span.
func settlementRoute(ex machine.ExecStats) string {
	switch {
	case ex.GangDispatches == 0:
		return "serial"
	case ex.GangShardedSettles == 0 && ex.SerialSteps == 0:
		return "fused"
	case ex.GangFusedSettles == 0 && ex.SerialSteps == 0:
		return "sharded"
	default:
		return "mixed"
	}
}

// cellEvent is the log entry of one settled cell: its deterministic
// span plus the runner's wall/acquire split.
func cellEvent(res spec.CellResult, ct spec.CellTiming) jobEvent {
	return jobEvent{kind: evCell, dur: ct.Wall, acquire: ct.Acquire, cell: &CellSpan{
		Cell:         res.Cell,
		Index:        res.Index,
		Measurements: len(res.Measurements),
		Settlement:   settlementRoute(res.Exec),
		Exec:         res.Exec,
		Error:        errText(res.Err),
	}}
}

// pointEvent is the log entry of one reduced sweep grid point.
func pointEvent(pt sweep.Point, wall time.Duration) jobEvent {
	return jobEvent{kind: evPoint, dur: wall, point: &PointSpan{
		Model:      pt.Model,
		Size:       pt.Size,
		Seed:       pt.Seed,
		Cells:      len(pt.Cells),
		Violations: pt.Violations,
		Errors:     pt.Errors,
		Time:       pt.Time,
	}}
}

// timelineOf folds a job's event log into its wire timeline. j is a
// copy taken under m.mu; the log is append-only, so the copied slice
// header is a stable snapshot and the fold runs unlocked.
func (m *manager) timelineOf(j job) Timeline {
	doc := Timeline{
		ID: j.id,
		Core: TimelineCore{
			Kind:       m.idPrefix,
			Experiment: j.params.exp.Name,
			RequestID:  j.params.requestID,
			State:      j.state(),
			Error:      errText(j.out.err),
		},
	}
	doc.Timing, doc.Core.Via = j.timing()
	var cells, points []jobEvent
	for _, e := range j.log {
		switch e.kind {
		case evCell:
			cells = append(cells, e)
		case evPoint:
			points = append(points, e)
		default:
			doc.Core.Events = append(doc.Core.Events, e.kind)
		}
	}

	// Spans into declaration order: completion order varies with job
	// parallelism, declaration order does not.
	slices.SortFunc(cells, func(a, b jobEvent) int { return a.cell.Index - b.cell.Index })
	for _, e := range cells {
		doc.Core.Cells = append(doc.Core.Cells, *e.cell)
		doc.Timing.Cells = append(doc.Timing.Cells, CellTimingSpan{
			Cell:            e.cell.Cell,
			WallSeconds:     e.dur.Seconds(),
			AcquireSeconds:  e.acquire.Seconds(),
			SimulateSeconds: (e.dur - e.acquire).Seconds(),
		})
	}

	// Grid points into plan order (model-major, then size, then seed).
	plan := j.params.plan
	rank := func(e jobEvent) int {
		return (slices.Index(plan.Models, e.point.Model)*len(plan.Sizes)+
			slices.Index(plan.Sizes, e.point.Size))*len(plan.Seeds) + slices.Index(plan.Seeds, e.point.Seed)
	}
	slices.SortFunc(points, func(a, b jobEvent) int { return rank(a) - rank(b) })
	for _, e := range points {
		doc.Core.Points = append(doc.Core.Points, *e.point)
		doc.Timing.Points = append(doc.Timing.Points, PointTimingSpan{
			Model:       e.point.Model,
			Size:        e.point.Size,
			Seed:        e.point.Seed,
			WallSeconds: e.dur.Seconds(),
		})
	}
	return doc
}

// timeline builds the wire document for the job with the given id.
func (m *manager) timeline(id string) (Timeline, *httpError) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return Timeline{}, errf(http.StatusNotFound, "unknown %s %q", m.idPrefix, id)
	}
	snap := *j
	m.mu.Unlock()
	return m.timelineOf(snap), nil
}
