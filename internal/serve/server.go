// Package serve exposes the experiment registry as a long-lived JSON
// HTTP service — the daemon behind cmd/lowcontendd. It turns one-shot
// artifact regeneration into a multi-tenant workload:
//
//	GET  /v1/experiments          registry listing: full descriptors (id, origin,
//	                              models, size grid, phase names, cell counts)
//	                              for builtins and stored definitions alike
//	POST /v1/experiments          store a declarative experiment definition;
//	                              201 + content id ("x-<12 hex>"), idempotent by
//	                              content (an equivalent re-POST returns 200 and
//	                              the same id)
//	GET  /v1/experiments/{id}     canonical definition bytes (dynamic only)
//	DELETE /v1/experiments/{id}   remove a stored definition (builtins are 403)
//	GET  /v1/runs                 list retained runs (?state=queued|running|done|failed)
//	POST /v1/runs                 submit {experiment, sizes, seed, model?, parallel?, profile?};
//	                              202 + job id (model charges every cell under
//	                              that contention model instead of the pinned ones)
//	GET  /v1/runs/{id}            job status, per-cell errors, charged PRAM stats
//	GET  /v1/runs/{id}/artifact   rendered artifact (text/plain; ?format=json for the result)
//	GET  /v1/runs/{id}/profile    rendered contention profile (profiled runs only;
//	                              byte-identical to `lowcontend profile`)
//	GET  /v1/sweeps               list retained sweeps (?state= filter)
//	POST /v1/sweeps               submit {experiment, models?, sizes?, seeds?, parallel?}:
//	                              the cross-model scenario grid, executed as one job
//	GET  /v1/sweeps/{id}          sweep status and, once finished, the reduced grid
//	GET  /v1/sweeps/{id}/artifact rendered comparative artifact (text/plain,
//	                              byte-identical to `lowcontend sweep`; ?format=json)
//	GET  /healthz                 liveness
//	GET  /metrics                 expvar-style counters (runs, sweeps, cache, pool, cells)
//
// Submissions land on bounded queues — one for runs, one for sweeps,
// each drained by its own worker pool with its own accounting — that
// share one core.SessionPool, so simulated machines are recycled
// across requests of both kinds. Because a job's charged stats and
// rendered artifact are a pure function of its determinism-relevant
// parameters (the contract of internal/exp/spec and internal/sweep),
// completed artifacts are cached by a canonical key and identical
// requests are served from the cache at zero simulation cost,
// bit-for-bit exact. Request validation bounds sizes so a hostile
// value cannot OOM the daemon, and Shutdown drains running cells
// instead of interrupting them.
//
// Every error response shares one structured envelope,
// {"error": {"code", "message", "path"}}: code is machine-readable
// (invalid_field, invalid_body, not_found, conflict, forbidden,
// payload_too_large, backpressure), path names the offending JSON
// field when one is to blame.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/obs"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Workers is the number of run-executing goroutines (default 2).
	// Negative means zero workers — submissions queue but never
	// execute — which only tests and diagnostics want.
	Workers int
	// SweepWorkers is the number of sweep-executing goroutines
	// (default 1: a sweep is a whole grid of experiment runs, so one at
	// a time keeps the daemon responsive for runs). Negative means
	// zero, as with Workers.
	SweepWorkers int
	// QueueDepth bounds the number of jobs waiting to run per queue;
	// submissions beyond it are refused with 503 (default 32).
	QueueDepth int
	// MaxJobs bounds each retained job table; the oldest finished jobs
	// are evicted past it (default 256).
	MaxJobs int
	// CacheEntries bounds the artifact cache (default 128).
	CacheEntries int
	// Parallel is the per-job cell parallelism (across all grid points
	// of a sweep) used when a request does not ask for one (default 1:
	// concurrency comes from the worker pools, not from within a job).
	Parallel int
	// Limits bound request validation; zero fields take DefaultLimits.
	Limits Limits
	// Pool, when non-nil, supplies sessions and stays owned by the
	// caller. When nil the server constructs its own pool and closes it
	// on Shutdown.
	Pool *core.SessionPool
	// Logger receives the daemon's structured log lines (request
	// traces, job lifecycle). Nil discards them, which is what tests
	// and library embedders want; cmd/lowcontendd wires stderr.
	Logger *slog.Logger

	// FlightEvents bounds the flight-recorder ring dumped at
	// /debug/flight on the debug handler (default
	// obs.DefaultFlightEvents).
	FlightEvents int
	// BackpressureBurst is the number of 503 rejections inside the
	// burst window (10s) that constitutes a backpressure incident
	// (default 10).
	BackpressureBurst int
	// SLOs declares per-endpoint latency/error objectives, evaluated
	// over obs.DefaultSLOWindows (5m and 30m) from the HTTP latency
	// histograms and served at GET /v1/slo. Empty means no objectives (the endpoint reports an
	// empty document). An objective's latency threshold also arms the
	// latency-breach incident trigger for its endpoint.
	SLOs []obs.Objective
	// ContentionSample, when positive, profiles every Nth simulated
	// run job into the rolling contention view at GET /v1/contention,
	// which retains the last 64 samples (default 0: continuous
	// profiling off; see contention.go for the telemetry perturbation
	// trade-off).
	ContentionSample int
}

// Server is the HTTP simulation service. Construct with New, mount
// Handler, and Shutdown to drain.
type Server struct {
	pool    *core.SessionPool
	ownPool bool
	cache   *artifactCache
	met     *metrics
	obs     *serverObs
	log     *slog.Logger
	jobs    *manager // run queue
	sweeps  *manager // sweep queue
	mux     *http.ServeMux
	limits  Limits
	started time.Time

	// store holds POSTed definitions; resolver layers the builtin
	// registry over it (builtins shadow dynamic names), and is what
	// validation and listings consult.
	store    *dynamic.Store
	resolver exp.Resolver

	flight     *obs.Flight
	incidents  *incidentStore
	slo        *obs.SLOEngine
	contention *contentionView
	sloStop    chan struct{}
	sloOnce    sync.Once
}

// New constructs a Server and starts its worker pools.
func New(cfg Config) *Server {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.SweepWorkers == 0 {
		cfg.SweepWorkers = 1
	}
	if cfg.SweepWorkers < 0 {
		cfg.SweepWorkers = 0
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	if cfg.BackpressureBurst <= 0 {
		cfg.BackpressureBurst = 10
	}
	s := &Server{
		pool:    cfg.Pool,
		cache:   newArtifactCache(cfg.CacheEntries),
		met:     &metrics{},
		obs:     newServerObs(),
		log:     cfg.Logger,
		limits:  cfg.Limits.withDefaults(),
		started: time.Now().UTC(),
		flight:  obs.NewFlight(cfg.FlightEvents),
		sloStop: make(chan struct{}),
		store:   dynamic.NewStore(dynamic.DefaultMaxDefinitions),
	}
	s.resolver = exp.Layered(exp.Builtins(), s.store)
	// An objective's latency threshold arms the latency-breach trigger
	// for its endpoint; with several objectives per endpoint the
	// strictest one fires first.
	thresholds := make(map[string]float64)
	for _, o := range cfg.SLOs {
		if o.LatencySeconds <= 0 {
			continue
		}
		if cur, ok := thresholds[o.Endpoint]; !ok || o.LatencySeconds < cur {
			thresholds[o.Endpoint] = o.LatencySeconds
		}
	}
	s.incidents = newIncidentStore(maxIncidents, s.flight, cfg.BackpressureBurst, thresholds)
	s.slo = obs.NewSLOEngine(cfg.SLOs, obs.DefaultSLOWindows)
	s.contention = newContentionView(cfg.ContentionSample)
	if s.pool == nil {
		s.pool = core.NewSessionPool()
		s.ownPool = true
	}
	s.jobs = newManager(s, &s.met.runs, "run", cfg.Workers, cfg.QueueDepth, cfg.Parallel, cfg.MaxJobs)
	s.sweeps = newManager(s, &s.met.sweeps, "sweep", cfg.SweepWorkers, cfg.QueueDepth, cfg.Parallel, cfg.MaxJobs)
	s.routes()
	if len(cfg.SLOs) > 0 {
		go s.sloTicker()
	}
	return s
}

// sloTickInterval is how often the SLO engine records a windowed
// sample of the HTTP latency histograms.
const sloTickInterval = 10 * time.Second

// sloTicker feeds the SLO engine until Shutdown.
func (s *Server) sloTicker() {
	t := time.NewTicker(sloTickInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sloStop:
			return
		case now := <-t.C:
			s.slo.Tick(now.UTC(), s.obs.httpLatency.Snapshot())
		}
	}
}

// routes wires the endpoint table. Split from New so tests can assemble
// bespoke servers (e.g. with a worker-less manager) around the same mux.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/experiments", s.handleDefine)
	s.mux.HandleFunc("GET /v1/experiments/{id}", s.handleDefinition)
	s.mux.HandleFunc("DELETE /v1/experiments/{id}", s.handleDeleteDefinition)
	s.mux.HandleFunc("GET /v1/runs", s.handleList(s.jobs))
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus(s.jobs))
	s.mux.HandleFunc("GET /v1/runs/{id}/artifact", s.handleArtifact(s.jobs))
	s.mux.HandleFunc("GET /v1/runs/{id}/profile", s.handleProfile)
	s.mux.HandleFunc("GET /v1/runs/{id}/timeline", s.handleTimeline(s.jobs))
	s.mux.HandleFunc("GET /v1/sweeps", s.handleList(s.sweeps))
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus(s.sweeps))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/artifact", s.handleArtifact(s.sweeps))
	s.mux.HandleFunc("GET /v1/sweeps/{id}/timeline", s.handleTimeline(s.sweeps))
	s.mux.HandleFunc("GET /v1/incidents", s.handleIncidents)
	s.mux.HandleFunc("GET /v1/incidents/{id}", s.handleIncident)
	s.mux.HandleFunc("GET /v1/slo", s.handleSLO)
	s.mux.HandleFunc("GET /v1/contention", s.handleContention)
	s.mux.HandleFunc("GET /v1/version", s.handleVersion)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the tracing/latency middleware.
func (s *Server) Handler() http.Handler { return s.withObs(s.mux) }

// Shutdown drains the server: new submissions are refused with 503,
// queued and running jobs of both queues finish (cells are never
// interrupted), and the owned session pool (if any) is released.
// Callers stop the HTTP listener first (http.Server.Shutdown), then
// drain jobs here.
func (s *Server) Shutdown(ctx context.Context) error {
	s.sloOnce.Do(func() { close(s.sloStop) })
	err := s.jobs.shutdown(ctx)
	if serr := s.sweeps.shutdown(ctx); err == nil {
		err = serr
	}
	if err == nil && s.ownPool {
		s.pool.Close()
	}
	return err
}

// --- handlers --------------------------------------------------------

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"experiments": s.resolver.Describe()})
}

// decodeBody decodes one JSON request body into req, bounded by the
// server's body limit and refusing unknown fields and trailing data
// (silently running only the first of two concatenated objects would
// drop the second).
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, req any) *httpError {
	body := http.MaxBytesReader(w, r.Body, s.limits.MaxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, "bad request body: %v", err).withCode("invalid_body")
	}
	if dec.More() {
		return errf(http.StatusBadRequest, "bad request body: trailing data after the request").withCode("invalid_body")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if herr := s.decodeBody(w, r, &req); herr != nil {
		writeError(w, herr)
		return
	}
	p, herr := validate(req, s.limits, s.resolver)
	if herr != nil {
		writeError(w, herr)
		return
	}
	p.requestID = RequestIDFrom(r.Context())
	st, herr := s.jobs.submit(p)
	if herr != nil {
		writeError(w, herr)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if herr := s.decodeBody(w, r, &req); herr != nil {
		writeError(w, herr)
		return
	}
	p, herr := validateSweep(req, s.limits, s.resolver)
	if herr != nil {
		writeError(w, herr)
		return
	}
	p.requestID = RequestIDFrom(r.Context())
	st, herr := s.sweeps.submit(p)
	if herr != nil {
		writeError(w, herr)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(m *manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		st, ok := m.status(id)
		if !ok {
			writeError(w, errf(http.StatusNotFound, "unknown %s %q", m.idPrefix, id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleArtifact(m *manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		artifact, result, herr := m.artifact(r.PathValue("id"))
		if herr != nil {
			writeError(w, herr)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, result)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(artifact))
	}
}

// handleList enumerates one queue's retained jobs — id, state, and
// submit parameters, without the per-cell results — so operators can
// find a job without knowing its id. ?state= filters by lifecycle
// state.
func (s *Server) handleList(m *manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		state := JobState(r.URL.Query().Get("state"))
		switch state {
		case "", JobQueued, JobRunning, JobDone, JobFailed:
		default:
			writeError(w, errf(http.StatusBadRequest,
				"unknown state %q (want %s, %s, %s, or %s)", state, JobQueued, JobRunning, JobDone, JobFailed).withPath("state"))
			return
		}
		jobs := m.list(state)
		// The collection key matches the endpoint: "runs" under
		// /v1/runs, "sweeps" under /v1/sweeps.
		writeJSON(w, http.StatusOK, map[string]any{"count": len(jobs), m.idPrefix + "s": jobs})
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	profText, herr := s.jobs.profileText(r.PathValue("id"))
	if herr != nil {
		writeError(w, herr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(profText))
}

// handleTimeline serves one job's recorded lifecycle timeline.
func (s *Server) handleTimeline(m *manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		doc, herr := m.timeline(r.PathValue("id"))
		if herr != nil {
			writeError(w, herr)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, versionInfo())
}

// versionInfo assembles the build identity served by GET /v1/version
// and echoed by /healthz: module path+version and VCS stamp when the
// binary was built from a checkout, plus the toolchain.
func versionInfo() map[string]any {
	info := map[string]any{
		"go":      runtime.Version(),
		"module":  "lowcontend",
		"version": "devel",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Path != "" {
		info["module"] = bi.Main.Path
	}
	if bi.Main.Version != "" {
		info["version"] = bi.Main.Version
	}
	for _, set := range bi.Settings {
		switch set.Key {
		case "vcs.revision":
			info["vcs_revision"] = set.Value
		case "vcs.time":
			info["vcs_time"] = set.Value
		case "vcs.modified":
			info["vcs_modified"] = set.Value == "true"
		}
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
		"go":             runtime.Version(),
		"version":        versionInfo()["version"],
	})
}

// handleMetrics serves the flat JSON counter document by default and
// the Prometheus text exposition under ?format=prometheus.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", promContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(s.renderProm())
		return
	}
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// metricsSnapshot is the manager counters plus the observability
// layer's own accounting and the process gauges.
func (s *Server) metricsSnapshot() map[string]int64 {
	out := s.met.snapshot(s.pool, s.cache.len())
	captured, retained := s.incidents.counts()
	out["incidents_captured"] = captured
	out["incidents_retained"] = retained
	out["contention_jobs_sampled"] = s.contention.sampledTotal()
	out["flight_events"] = int64(s.flight.Recorded())
	out["definitions_created"] = s.met.defsCreated.Load()
	out["definitions_deleted"] = s.met.defsDeleted.Load()
	out["definitions_stored"] = int64(s.store.Len())
	procGauges(out)
	return out
}

// handleIncidents lists retained incidents, newest first.
func (s *Server) handleIncidents(w http.ResponseWriter, _ *http.Request) {
	incidents := s.incidents.list()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(incidents), "incidents": incidents})
}

// handleIncident serves one incident's full document.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	inc, ok := s.incidents.get(id)
	if !ok {
		writeError(w, errf(http.StatusNotFound, "unknown incident %q", id))
		return
	}
	writeJSON(w, http.StatusOK, inc)
}

// sloReport evaluates the objectives against the live HTTP latency
// histograms at the current instant.
func (s *Server) sloReport() obs.SLOReport {
	return s.slo.Report(time.Now().UTC(), s.obs.httpLatency.Snapshot())
}

// handleSLO serves rolling-window SLO attainment and burn rates.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sloReport())
}

// handleContention serves the rolling contention-profiling view.
func (s *Server) handleContention(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.contention.report())
}

// --- wire helpers ----------------------------------------------------

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the structured error envelope every /v1 endpoint
// renders: a machine-readable code, the human-readable message, and —
// for field-level failures — the JSON path of the offending field.
type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Path    string `json:"path,omitempty"`
}

func writeError(w http.ResponseWriter, e *httpError) {
	writeJSON(w, e.status, map[string]errorBody{"error": {Code: e.code, Message: e.msg, Path: e.path}})
}
