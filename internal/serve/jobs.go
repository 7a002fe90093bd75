package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/obs"
	"lowcontend/internal/profile"
	"lowcontend/internal/sweep"
)

// JobState is a job's position in its lifecycle.
type JobState string

// The job lifecycle: queued → running → done | failed. A run job is
// failed when at least one cell errored; its per-cell errors remain
// inspectable on the status result, mirroring the CLI's per-cell error
// attribution. A sweep job fails only on internal errors: model
// violations inside the grid are comparative data, rendered in the
// artifact, not failures.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// JobStatus is the wire form of a job on GET /v1/runs/{id} and
// GET /v1/sweeps/{id} (and, with the result omitted, one entry of the
// corresponding listings): the normalized request, the lifecycle
// state, and — once finished — the full result (per-cell charged PRAM
// stats for runs, the reduced grid for sweeps).
type JobStatus struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	Experiment string   `json:"experiment"`
	Sizes      []int    `json:"sizes,omitempty"`
	// Seed is set for runs (always on the wire, even an explicit
	// seed 0); sweeps carry Seeds instead and omit it.
	Seed     *uint64  `json:"seed,omitempty"`
	Model    string   `json:"model,omitempty"`
	Models   []string `json:"models,omitempty"`
	Seeds    []uint64 `json:"seeds,omitempty"`
	Parallel int      `json:"parallel,omitempty"`
	Profile  bool     `json:"profile,omitempty"`
	// RequestID is the X-Request-ID of the submission that created this
	// record (idempotent resubmissions keep the original's).
	RequestID string        `json:"request_id,omitempty"`
	CacheHit  bool          `json:"cache_hit,omitempty"`
	Error     string        `json:"error,omitempty"`
	Created   time.Time     `json:"created"`
	Started   *time.Time    `json:"started,omitempty"`
	Finished  *time.Time    `json:"finished,omitempty"`
	Result    *spec.Result  `json:"result,omitempty"`
	Sweep     *sweep.Result `json:"sweep,omitempty"`
}

// outcome is what executing (or cache-serving) a job yields: the
// rendered text artifact, the rendered contention profile (profiled
// runs only), the kind-specific result, and the error that decides the
// done/failed transition.
type outcome struct {
	artifact string
	profText string
	result   *spec.Result  // run jobs
	sweepRes *sweep.Result // sweep jobs
	err      error
	// sampled marks an execution the contention sampler forced under
	// profiling: its host-side exec telemetry is perturbed (hot-cell
	// attribution expands bulk descriptors), so it is served to its
	// own client but never entered into the artifact cache — the
	// canonical cached bytes always come from an unprofiled execution.
	sampled bool
}

// job is the manager's record of one submitted run or sweep. Its
// mutable fields are guarded by the manager's mutex; workers copy what
// they need out under the lock and publish results back under it.
type job struct {
	id     string
	params jobParams
	out    outcome // set once, when the job finishes
	// log is the job's event log, written only by manager.record. The
	// state, every lifecycle time, the timeline and the job_failed
	// incident are folds over it.
	log []jobEvent
}

// manager owns one bounded job queue, the worker pool that drains it,
// and its job table. The server runs two managers — runs and sweeps —
// with separate queues and counters but one shared core.SessionPool
// and one shared artifact cache (keys are namespaced per kind), so
// machines allocated for any request are recycled by every other.
type manager struct {
	pool       *core.SessionPool
	cache      *artifactCache
	met        *metrics    // shared cache/cell counters
	ctr        *counterSet // this queue's own accounting
	sobs       *serverObs  // shared latency histograms
	log        *slog.Logger
	flight     *obs.Flight     // shared flight recorder (nil-safe)
	incidents  *incidentStore  // shared incident store (nil-safe)
	contention *contentionView // shared contention sampler (nil-safe)
	idPrefix   string          // job id namespace ("run", "sweep")
	qlabel     string          // histogram queue label ("runs", "sweeps")
	parallel   int             // per-job parallelism when the request says 0
	maxJobs    int             // retained job records (finished jobs beyond this are evicted)

	mu      sync.Mutex
	jobs    map[string]*job
	order   []string           // insertion order, for eviction
	flights map[string]*flight // in-flight runs by cache key, for coalescing
	byKey   map[string]string  // cache key → completed job id, for idempotent resubmission
	live    int                // queued + running jobs, coalesced waiters included
	maxLive int                // live bound; past it submissions get 503
	nextID  int
	closed  bool
	// unlogged holds the job log lines record queued under mu; unlock
	// writes them once mu is released.
	unlogged []slog.Record

	queue   chan *job
	wg      sync.WaitGroup
	drained chan struct{} // closed once every worker has exited
}

// flight coalesces concurrent identical submissions: the first job to
// miss the cache becomes the leader and simulates; followers register
// as waiters — releasing their worker immediately instead of parking on
// it — and the leader completes them with its own outcome. Determinism
// makes that exact: an identical submission would reproduce the
// leader's artifact, stats, and even its failure bit-for-bit.
type flight struct {
	leader  *job
	waiters []*job
}

func newManager(s *Server, ctr *counterSet,
	idPrefix string, workers, queueDepth, parallel, maxJobs int) *manager {
	m := &manager{
		pool:       s.pool,
		cache:      s.cache,
		met:        s.met,
		ctr:        ctr,
		sobs:       s.obs,
		log:        s.log,
		flight:     s.flight,
		incidents:  s.incidents,
		contention: s.contention,
		idPrefix:   idPrefix,
		qlabel:     idPrefix + "s",
		parallel:   parallel,
		maxJobs:    maxJobs,
		jobs:       make(map[string]*job),
		flights:    make(map[string]*flight),
		byKey:      make(map[string]string),
		queue:      make(chan *job, queueDepth),
		drained:    make(chan struct{}),
		// The queue bounds jobs waiting for a worker, but coalesced
		// waiters leave the queue in microseconds and park on their
		// leader, so live jobs are bounded separately: room for a full
		// queue and busy workers, plus a queue's worth of waiters.
		maxLive: 2*queueDepth + workers,
	}
	// Retention must exceed the live bound, or a table full of live
	// jobs would evict a just-completed inline cache hit before its
	// client's first status poll.
	if m.maxJobs <= m.maxLive {
		m.maxJobs = m.maxLive + 64
	}
	for range workers {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.safeRun(j)
			}
		}()
	}
	return m
}

// safeRun contains panics from job execution (spec.Runner recovers
// cell panics, but a Cells factory or Render can still blow up): an
// uncontained panic would kill the worker for good, leak the job's
// live slot toward permanent 503, and strand every future duplicate on
// a dead leader's flight. The panicking job — and any waiters
// coalesced onto it — finish as failed instead.
func (m *manager) safeRun(j *job) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		out := outcome{err: fmt.Errorf("internal error: panic: %v", p)}
		m.mu.Lock()
		var waiters []*job
		if f, ok := m.flights[j.params.key]; ok && f.leader == j {
			waiters = f.waiters
			delete(m.flights, j.params.key)
		}
		m.mu.Unlock()
		m.finish(j, out, "")
		m.captureJobIncident(j)
		for _, wj := range waiters {
			m.finish(wj, out, "")
		}
	}()
	m.run(j)
}

// captureJobIncident snapshots a just-failed job into the incident
// store, evidence-first: the full timeline document carries the
// deterministic core (per-cell exec deltas, settlement routes, the
// error) and the wall-clock spans. It folds the job record itself, so
// a concurrent submit evicting the job from the table loses nothing.
func (m *manager) captureJobIncident(j *job) {
	if m.incidents == nil {
		return
	}
	m.mu.Lock()
	snap := *j
	m.mu.Unlock()
	m.incidents.captureJob(m.timelineOf(snap))
}

// submit enqueues a validated submission. It refuses with 503 when the
// daemon is draining or the queue is full — the queue is the
// backpressure boundary; nothing upstream of it blocks.
func (m *manager) submit(p jobParams) (JobStatus, *httpError) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.ctr.rejected.Add(1)
		m.flight.Record("queue_reject", obs.FStr("queue", m.qlabel), obs.FStr("reason", "draining"),
			obs.FStr("request_id", p.requestID))
		return JobStatus{}, errf(http.StatusServiceUnavailable, "server is shutting down")
	}
	// A cached submission completes inline: it costs zero simulation,
	// so it must not consume a queue slot (or be 503-rejected when slow
	// simulations saturate the queue), and the client skips a poll
	// round-trip. Resubmissions are idempotent — when a completed
	// record for the key is still retained, the client gets that run's
	// id back rather than a fresh record, so a hot key can never grow
	// the job table or evict other clients' unfetched runs. Lock order
	// is always m.mu → cache.mu, never inverse.
	if e, ok := m.cache.get(p.key); ok {
		m.ctr.submitted.Add(1)
		m.met.cacheHits.Add(1)
		m.ctr.done.Add(1)
		if id, ok := m.byKey[p.key]; ok {
			if prev, ok := m.jobs[id]; ok {
				st := m.statusLocked(prev)
				// The submit response reports how *this* submission
				// was served (parallel never affects output, so the
				// shared run satisfies any requested value); the
				// record keeps its own history.
				st.CacheHit = true
				st.Parallel = p.parallel
				m.mu.Unlock()
				m.log.Info("job resubmitted", "queue", m.qlabel, "id", st.ID,
					"request_id", p.requestID, "experiment", p.exp.Name)
				return st, nil
			}
		}
		m.nextID++
		j := &job{id: fmt.Sprintf("%s-%d", m.idPrefix, m.nextID), params: p, out: e.out}
		// Submitted, served and finished in one instant.
		now := time.Now()
		m.record(j, jobEvent{kind: evSubmitted, at: now})
		m.record(j, jobEvent{kind: evCacheHit, at: now})
		m.record(j, jobEvent{kind: evFinished, at: now, via: "cache"})
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.byKey[p.key] = j.id
		m.evictLocked()
		st := m.statusLocked(j)
		m.unlock()
		return st, nil
	}
	m.nextID++
	j := &job{id: fmt.Sprintf("%s-%d", m.idPrefix, m.nextID), params: p}
	if m.live >= m.maxLive {
		m.mu.Unlock()
		m.ctr.rejected.Add(1)
		m.flight.Record("queue_reject", obs.FStr("queue", m.qlabel), obs.FStr("reason", "live_limit"),
			obs.FStr("request_id", p.requestID), obs.FInt("limit", int64(m.maxLive)))
		return JobStatus{}, errf(http.StatusServiceUnavailable, "too many in-flight runs (limit %d); retry later", m.maxLive)
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		m.ctr.rejected.Add(1)
		m.flight.Record("queue_reject", obs.FStr("queue", m.qlabel), obs.FStr("reason", "queue_full"),
			obs.FStr("request_id", p.requestID), obs.FInt("depth", int64(cap(m.queue))))
		return JobStatus{}, errf(http.StatusServiceUnavailable, "job queue is full (depth %d)", cap(m.queue))
	}
	// The worker that dequeues j blocks on m.mu, so submitted is logged
	// first even though j is already on the queue. Counters move inside
	// the lock for the same reason: the queued gauge is never observed
	// negative.
	m.record(j, jobEvent{kind: evSubmitted})
	m.live++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	st := m.statusLocked(j)
	m.ctr.submitted.Add(1)
	m.ctr.queued.Add(1)
	m.unlock()
	return st, nil
}

// evictLocked drops the oldest finished jobs once the table exceeds
// maxJobs. Queued and running jobs are never evicted.
func (m *manager) evictLocked() {
	for len(m.jobs) > m.maxJobs {
		evicted := false
		for i, id := range m.order {
			j := m.jobs[id]
			if st := j.state(); st == JobDone || st == JobFailed {
				delete(m.jobs, id)
				if m.byKey[j.params.key] == id {
					delete(m.byKey, j.params.key)
				}
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything retained is still live
		}
	}
}

// run executes one job on a worker: serve it from the artifact cache
// when an identical submission already completed — determinism makes
// the cached bytes exact — and simulate otherwise.
func (m *manager) run(j *job) {
	m.mu.Lock()
	p := j.params
	// Gauges move with the state they mirror, inside the same critical
	// section, so a client that just observed a state via the status
	// endpoint (also under this lock) can never catch /metrics lagging.
	m.ctr.queued.Add(-1)
	m.ctr.running.Add(1)
	m.record(j, jobEvent{kind: evDequeued})
	if e, ok := m.cache.get(p.key); ok {
		m.met.cacheHits.Add(1)
		m.record(j, jobEvent{kind: evCacheHit})
		m.unlock()
		m.finish(j, e.out, "cache")
		return
	}
	// Coalesce concurrent identical submissions: the first worker to
	// miss the cache for a key leads and simulates; later duplicates
	// register as waiters and free their worker, so one slow run's
	// duplicates can never occupy the whole pool. The cache lookup
	// above shares this critical section, and a leader puts its outcome
	// in the cache before it deregisters under m.mu, so a finished
	// leader's outcome cannot slip between the two checks.
	if f, ok := m.flights[p.key]; ok {
		f.waiters = append(f.waiters, j)
		m.record(j, jobEvent{kind: evCoalesced})
		m.unlock()
		return
	}
	m.flights[p.key] = &flight{leader: j}
	m.unlock()

	m.met.cacheMisses.Add(1)
	out := m.simulate(j)
	if out.err == nil && !out.sampled {
		// Only fully successful, unsampled outcomes are cached: a
		// partial result must never be replayed as the canonical
		// artifact, and a sampled execution's exec telemetry is
		// perturbed by profiling (see outcome.sampled).
		m.cache.put(p.key, &cacheEntry{out: out})
	}
	m.finish(j, out, "")
	if out.err != nil {
		m.captureJobIncident(j)
	}

	// Complete the coalesced waiters with the identical outcome. After
	// the flight is deregistered, fresh duplicates hit the cache (or
	// lead a new flight if this run failed and cached nothing).
	m.mu.Lock()
	waiters := m.flights[p.key].waiters
	delete(m.flights, p.key)
	m.mu.Unlock()
	shared := out.err == nil
	for _, wj := range waiters {
		via := ""
		if shared {
			// Coalescing, not a cache lookup — counted separately so
			// /metrics doesn't conflate the two zero-simulation paths.
			m.ctr.coalesced.Add(1)
			via = "coalesce"
		}
		m.finish(wj, out, via)
	}
}

// cellHook gauges in-flight experiment cells for /metrics; both job
// kinds thread it through their runners.
func (m *manager) cellHook(_ string, start bool) {
	if start {
		m.met.cellsInflight.Add(1)
		m.met.cellsRun.Add(1)
	} else {
		m.met.cellsInflight.Add(-1)
	}
}

// simulate executes one submission and renders its artifact(s),
// logging per-cell (or per-point) spans, then simulated and rendered,
// onto the leader's event log.
func (m *manager) simulate(j *job) outcome {
	p := j.params
	par := p.parallel
	if par == 0 {
		par = m.parallel
	}
	// Nothing in simulate holds m.mu, the runner's observer callbacks
	// included.
	record := func(e jobEvent) {
		m.mu.Lock()
		m.record(j, e)
		m.unlock()
	}
	var render func() outcome
	switch p.kind {
	case sweepJob:
		runner := &sweep.Runner{
			Parallel:      par,
			Pool:          m.pool,
			CellHook:      m.cellHook,
			PointObserver: func(pt sweep.Point, wall time.Duration) { record(pointEvent(pt, wall)) },
		}
		res := runner.Run(p.exp, p.plan)
		// Violating grid cells are the sweep's comparative payload, so
		// they never fail the job; the artifact renders them.
		render = func() outcome { return outcome{artifact: sweep.RenderText(res) + "\n", sweepRes: &res} }
	default:
		// The contention sampler may force profiling onto an unprofiled
		// run; explicitly profiled runs fold into the view for free.
		forced := !p.profile && m.contention.shouldSample()
		runner := &spec.Runner{
			Parallel:     par,
			Pool:         m.pool,
			Profile:      p.profile || forced,
			CellHook:     m.cellHook,
			CellObserver: func(res spec.CellResult, ct spec.CellTiming) { record(cellEvent(res, ct)) },
		}
		if p.model != "" {
			// Validation canonicalized the name, so it always parses.
			model, _ := machine.ParseModel(p.model)
			runner.Model = &model
		}
		res := runner.Run(p.exp, p.sizes, p.seed)
		if p.profile || forced {
			var profs []*profile.Profile
			for i := range res.Cells {
				profs = append(profs, res.Cells[i].Profiles...)
			}
			m.contention.add(j.id, p.exp.Name, profs, forced)
		}
		if forced {
			// The client didn't ask for profiles: strip them so the
			// served result matches an unprofiled submission's shape.
			for i := range res.Cells {
				res.Cells[i].Profiles = nil
			}
		}
		render = func() outcome {
			out := outcome{artifact: renderArtifact(p.exp, res), result: &res,
				err: res.FirstErr(), sampled: forced}
			if p.profile {
				out.profText = renderProfile(res)
			}
			return out
		}
	}
	record(jobEvent{kind: evSimulated})
	t0 := time.Now()
	out := render()
	record(jobEvent{kind: evRendered, dur: time.Since(t0)})
	return out
}

// renderArtifact renders a result exactly as `lowcontend run <exp>`
// prints it — Render plus the trailing newline fmt.Println appends — so
// the artifact endpoint is byte-identical to the CLI's stdout (CI
// diffs the two; the sweep artifact in simulate follows the same
// convention against `lowcontend sweep`).
func renderArtifact(e spec.Experiment, res spec.Result) string {
	return e.Render(res) + "\n"
}

// renderProfile renders a profiled result exactly as `lowcontend
// profile <exp>` prints it, the same byte-identity contract as
// renderArtifact (CI diffs the profile endpoint against the CLI too).
func renderProfile(res spec.Result) string {
	return spec.RenderProfiles(res) + "\n"
}

// finish settles a job. via records how the submission was served
// without simulating — "cache" (artifact cache) or "coalesce"
// (completed by an identical in-flight leader) — and is empty for
// simulated jobs; any non-empty via reports as cache_hit on the wire,
// while the timeline keeps the distinction.
func (m *manager) finish(j *job, out outcome, via string) {
	m.mu.Lock()
	defer m.unlock()
	if st := j.state(); st == JobDone || st == JobFailed {
		// Already settled (e.g. panic containment racing a normal
		// completion); finishing is once-only.
		return
	}
	j.out = out
	// Counters settle with the state transition (see run): the running
	// gauge covers coalesced waiters too — they stay JobRunning without
	// occupying a worker until their leader completes them here.
	m.live--
	m.ctr.running.Add(-1)
	if out.err != nil {
		m.ctr.failed.Add(1)
	} else {
		m.ctr.done.Add(1)
		m.byKey[j.params.key] = j.id
	}
	m.record(j, jobEvent{kind: evFinished, via: via})
}

// status returns the wire form of the job with the given id.
func (m *manager) status(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return m.statusLocked(j), true
}

func (m *manager) statusLocked(j *job) JobStatus {
	tm, via := j.timing()
	st := JobStatus{
		ID:         j.id,
		State:      j.state(),
		Experiment: j.params.exp.Name,
		Sizes:      j.params.sizes,
		Parallel:   j.params.parallel,
		RequestID:  j.params.requestID,
		CacheHit:   via != "",
		Error:      errText(j.out.err),
		Created:    tm.Created,
		Started:    tm.Started,
		Finished:   tm.Finished,
		Result:     j.out.result,
		Sweep:      j.out.sweepRes,
	}
	switch j.params.kind {
	case sweepJob:
		st.Models = j.params.plan.Models
		st.Seeds = j.params.plan.Seeds
	default:
		seed := j.params.seed
		st.Seed = &seed
		st.Model = j.params.model
		st.Profile = j.params.profile
	}
	return st
}

// artifact returns the rendered artifact and kind-specific result of a
// successfully finished job — the single state gate for both artifact
// forms. A job that has not completed yields 409 carrying the state so
// clients can poll and retry; a failed job yields 409 with its error
// (its partial result stays inspectable on the status endpoint, never
// as an artifact).
func (m *manager) artifact(id string) (string, any, *httpError) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", nil, errf(http.StatusNotFound, "unknown %s %q", m.idPrefix, id)
	}
	switch st := j.state(); st {
	case JobDone:
		if j.params.kind == sweepJob {
			return j.out.artifact, j.out.sweepRes, nil
		}
		return j.out.artifact, j.out.result, nil
	case JobFailed:
		return "", nil, errf(http.StatusConflict, "%s %s failed: %s", m.idPrefix, id, j.out.err)
	default:
		return "", nil, errf(http.StatusConflict, "%s %s is %s; poll GET /v1/%ss/%s until done", m.idPrefix, id, st, m.idPrefix, id)
	}
}

// list returns the wire form of every retained job in submission order,
// optionally filtered by state (empty = all), with the bulky results
// stripped: listings are for enumeration, the status endpoint serves
// the full record. The slice is never nil so the endpoint renders
// "runs": [] rather than null when the table is empty.
func (m *manager) list(state JobState) []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		j := m.jobs[id]
		if state != "" && j.state() != state {
			continue
		}
		st := m.statusLocked(j)
		st.Result = nil
		st.Sweep = nil
		out = append(out, st)
	}
	return out
}

// profileText returns the rendered contention profile of a successfully
// finished profiled job. The state gates mirror artifact's; a run that
// completed without "profile": true yields 409 telling the client how
// to get one, rather than a misleading 404.
func (m *manager) profileText(id string) (string, *httpError) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return "", errf(http.StatusNotFound, "unknown run %q", id)
	}
	switch st := j.state(); st {
	case JobDone:
		if !j.params.profile {
			return "", errf(http.StatusConflict, "run %s was not profiled; resubmit with \"profile\": true", id)
		}
		return j.out.profText, nil
	case JobFailed:
		return "", errf(http.StatusConflict, "run %s failed: %s", id, j.out.err)
	default:
		return "", errf(http.StatusConflict, "run %s is %s; poll GET /v1/runs/%s until done", id, st, id)
	}
}

// shutdown drains the manager: no new submissions are accepted, queued
// and running jobs complete (running cells are never interrupted), and
// shutdown returns when the workers have exited or ctx expires. A
// retried shutdown (after a ctx timeout) resumes waiting on the same
// drain rather than reporting success early.
func (m *manager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		// Submissions observe closed before touching the channel, so
		// closing it here cannot race a send.
		close(m.queue)
		go func() {
			m.wg.Wait()
			close(m.drained)
		}()
	}
	m.mu.Unlock()
	select {
	case <-m.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown interrupted with jobs still draining: %w", ctx.Err())
	}
}
