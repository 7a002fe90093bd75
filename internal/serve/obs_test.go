package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lowcontend/internal/exp/spec"
	"lowcontend/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite the timeline golden files in testdata")

// doH is do with request headers.
func doH(t *testing.T, s *Server, method, path, body string, headers map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestMetricsJSONKeySet pins the flat JSON /metrics document's exact
// key set: scrapers depend on it, and the Prometheus exposition riding
// alongside must never change it.
func TestMetricsJSONKeySet(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodGet, "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: code %d", w.Code)
	}
	var doc map[string]int64
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	got := make([]string, 0, len(doc))
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"bulk_descriptors", "cache_entries", "cache_hits", "cache_misses",
		"cells_inflight", "cells_run", "contention_jobs_sampled",
		"definitions_created", "definitions_deleted", "definitions_stored",
		"expanded_descriptors", "flight_events",
		"gang_dispatches", "gang_fused_settles",
		"incidents_captured", "incidents_retained",
		"jobs_coalesced", "jobs_done", "jobs_failed", "jobs_queued",
		"jobs_rejected", "jobs_running", "jobs_submitted",
		"pool_acquires", "pool_idle", "pool_news", "pool_reuses",
		"proc_gc_cycles", "proc_goroutines", "proc_heap_objects_bytes",
		"serial_steps",
		"sweeps_coalesced", "sweeps_done", "sweeps_failed", "sweeps_queued",
		"sweeps_rejected", "sweeps_running", "sweeps_submitted",
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("JSON /metrics key set changed:\ngot  %v\nwant %v", got, want)
	}
}

// TestPrometheusExposition: after real traffic, the Prometheus scrape
// is well-formed text exposition — every sample line parseable, every
// histogram's cumulative buckets monotone with the +Inf terminator
// matching _count — and carries the three required latency families
// plus the engine telemetry gauges.
func TestPrometheusExposition(t *testing.T) {
	s := newTestServer(t)
	st := submit(t, s, `{"experiment":"table1","sizes":[64]}`)
	waitDone(t, s, st.ID)

	w := do(t, s, http.MethodGet, "/metrics?format=prometheus", "")
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus scrape: code %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != promContentType {
		t.Errorf("content type %q, want %q", ct, promContentType)
	}
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE lowcontend_http_request_duration_seconds histogram",
		"# TYPE lowcontend_queue_wait_seconds histogram",
		"# TYPE lowcontend_cell_duration_seconds histogram",
		`lowcontend_queue_wait_seconds_count{queue="runs"}`,
		`lowcontend_cell_duration_seconds_count{queue="runs"}`,
		"# TYPE lowcontend_jobs_done gauge",
		"lowcontend_exec_chunks_claimed",
		"lowcontend_bulk_descriptors",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Every sample line: "name{labels} value" with a parseable value;
	// bucket series monotone per label set, +Inf equal to _count.
	type series struct {
		vals []float64
		inf  float64
	}
	buckets := map[string]*series{} // keyed by name+labels-without-le
	counts := map[string]float64{}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d not a sample: %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("line %d value %q: %v", ln+1, line[sp+1:], err)
		}
		name := line[:sp]
		switch {
		case strings.Contains(name, "_bucket{"):
			le := ""
			if i := strings.Index(name, `le="`); i >= 0 {
				rest := name[i+4:]
				le = rest[:strings.IndexByte(rest, '"')]
			}
			key := strings.Replace(name, `le="`+le+`"`, "", 1)
			sr := buckets[key]
			if sr == nil {
				sr = &series{}
				buckets[key] = sr
			}
			if le == "+Inf" {
				sr.inf = val
			} else {
				sr.vals = append(sr.vals, val)
			}
		case strings.Contains(name, "_count"):
			buckKey := strings.Replace(name, "_count", "_bucket", 1)
			counts[buckKey] = val
		}
	}
	if len(buckets) == 0 {
		t.Fatal("scrape contained no histogram buckets")
	}
	matched := 0
	for key, sr := range buckets {
		for i := 1; i < len(sr.vals); i++ {
			if sr.vals[i] < sr.vals[i-1] {
				t.Errorf("series %s not monotone: %v", key, sr.vals)
			}
		}
		// Stripping the trailing le label leaves "...,}"; normalize to
		// the _count line's label set to pair the series up.
		want, ok := counts[strings.Replace(key, ",}", "}", 1)]
		if ok {
			matched++
			if sr.inf != want {
				t.Errorf("series %s: +Inf %v != count %v", key, sr.inf, want)
			}
		}
	}
	if matched == 0 {
		t.Error("no bucket series paired with a _count line")
	}
}

// timelineCore fetches one job's timeline and returns the raw bytes of
// its deterministic core document.
func timelineCore(t *testing.T, s *Server, kind, id string) string {
	t.Helper()
	w := do(t, s, http.MethodGet, "/v1/"+kind+"/"+id+"/timeline", "")
	if w.Code != http.StatusOK {
		t.Fatalf("timeline %s/%s: code %d, body %s", kind, id, w.Code, w.Body)
	}
	var doc struct {
		Core json.RawMessage `json:"core"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("timeline JSON: %v", err)
	}
	return string(doc.Core)
}

func checkTimelineGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing timeline golden (run `go test ./internal/serve -run Timeline -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline core differs from %s (intentional? regenerate with -update):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestRunTimelineDeterministicCore: a run's timeline core — cell spans,
// settlement routes, exec deltas, event order — is byte-identical at
// cell parallelism 1 and 8, and matches the committed golden.
func TestRunTimelineDeterministicCore(t *testing.T) {
	core := func(parallel int) string {
		s := New(Config{Parallel: parallel})
		defer func() {
			ctx, cancel := testContext(t)
			defer cancel()
			s.Shutdown(ctx)
		}()
		w := doH(t, s, http.MethodPost, "/v1/runs",
			`{"experiment":"table1","sizes":[64],"seed":3}`,
			map[string]string{"X-Request-ID": "golden-run"})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
		}
		var st JobStatus
		json.Unmarshal(w.Body.Bytes(), &st)
		waitDone(t, s, st.ID)
		return timelineCore(t, s, "runs", st.ID)
	}
	c1 := core(1)
	c8 := core(8)
	if c1 != c8 {
		t.Fatalf("timeline core depends on parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", c1, c8)
	}
	checkTimelineGolden(t, "timeline_run_core.golden", c1)
}

// TestSweepTimelineDeterministicCore: same contract for sweep
// timelines — grid-point spans land in plan order at any grid
// parallelism.
func TestSweepTimelineDeterministicCore(t *testing.T) {
	core := func(parallel int) string {
		s := New(Config{Parallel: parallel})
		defer func() {
			ctx, cancel := testContext(t)
			defer cancel()
			s.Shutdown(ctx)
		}()
		w := doH(t, s, http.MethodPost, "/v1/sweeps",
			`{"experiment":"table1","models":["qrqw","crcw"],"sizes":[16,64],"seeds":[1]}`,
			map[string]string{"X-Request-ID": "golden-sweep"})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit sweep: code %d, body %s", w.Code, w.Body)
		}
		var st JobStatus
		json.Unmarshal(w.Body.Bytes(), &st)
		waitDoneSweep(t, s, st.ID)
		return timelineCore(t, s, "sweeps", st.ID)
	}
	c1 := core(1)
	c8 := core(8)
	if c1 != c8 {
		t.Fatalf("sweep timeline core depends on parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", c1, c8)
	}
	checkTimelineGolden(t, "timeline_sweep_core.golden", c1)
}

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon logs from
// worker goroutines, so the test's log sink must be concurrency-safe.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRequestIDPropagation: a supplied X-Request-ID is echoed on the
// response, attached to the job's status and timeline, and lands in
// the structured log lines of both the HTTP request and the job
// lifecycle; absent or invalid IDs are replaced by generated ones.
func TestRequestIDPropagation(t *testing.T) {
	var buf syncBuffer
	s := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	t.Cleanup(func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	})

	w := doH(t, s, http.MethodPost, "/v1/runs", `{"experiment":"fig1"}`,
		map[string]string{"X-Request-ID": "trace-abc-123"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
	}
	if got := w.Header().Get("X-Request-ID"); got != "trace-abc-123" {
		t.Errorf("response echo = %q, want trace-abc-123", got)
	}
	var st JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	if st.RequestID != "trace-abc-123" {
		t.Errorf("JobStatus.RequestID = %q, want trace-abc-123", st.RequestID)
	}
	waitDone(t, s, st.ID)
	if core := timelineCore(t, s, "runs", st.ID); !strings.Contains(core, `"request_id": "trace-abc-123"`) {
		t.Errorf("timeline core lacks the request id:\n%s", core)
	}
	logs := buf.String()
	if n := strings.Count(logs, "request_id=trace-abc-123"); n < 2 {
		t.Errorf("request id appears %d times in logs, want >= 2 (http + job lifecycle):\n%s", n, logs)
	}

	// A hostile header (control bytes) is discarded for a generated ID.
	w = doH(t, s, http.MethodGet, "/healthz", "", map[string]string{"X-Request-ID": "bad\x01id"})
	if got := w.Header().Get("X-Request-ID"); !strings.HasPrefix(got, "r-") {
		t.Errorf("invalid supplied ID echoed back as %q, want generated r-...", got)
	}
	// No header at all mints one.
	w = do(t, s, http.MethodGet, "/healthz", "")
	if got := w.Header().Get("X-Request-ID"); !strings.HasPrefix(got, "r-") {
		t.Errorf("missing ID not minted: %q", got)
	}
}

// TestPprofOnlyOnDebugHandler: the service handler never serves pprof
// or the flight dump; the explicit DebugHandler serves both.
func TestPprofOnlyOnDebugHandler(t *testing.T) {
	s := newTestServer(t)
	if w := do(t, s, http.MethodGet, "/debug/pprof/", ""); w.Code != http.StatusNotFound {
		t.Errorf("service handler served /debug/pprof/ with %d, want 404", w.Code)
	}
	if w := do(t, s, http.MethodGet, "/debug/flight", ""); w.Code != http.StatusNotFound {
		t.Errorf("service handler served /debug/flight with %d, want 404", w.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil)
	w := httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("DebugHandler /debug/pprof/: code %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), "pprof") {
		t.Errorf("DebugHandler index does not look like pprof:\n%.200s", w.Body.String())
	}
	req = httptest.NewRequest(http.MethodGet, "/debug/flight", nil)
	w = httptest.NewRecorder()
	s.DebugHandler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("DebugHandler /debug/flight: code %d, want 200", w.Code)
	}
	var dump struct {
		Recorded int         `json:"recorded"`
		Events   []obs.Event `json:"events"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	if dump.Recorded == 0 || len(dump.Events) == 0 {
		t.Errorf("flight dump empty after traced requests: recorded=%d events=%d",
			dump.Recorded, len(dump.Events))
	}
}

// TestJobFlightMatchesTimeline pins the flight ring's per-job shape:
// the entries carrying a job's id are its timeline's Core.Events in
// order, with one cell entry per cell span logged before simulated, and
// every entry carries the job, queue and request_id fields. Three
// routes: a simulated run, an inline cache hit and a coalesced waiter.
func TestJobFlightMatchesTimeline(t *testing.T) {
	s := New(Config{Workers: -1, FlightEvents: 4096}) // the test drives every job
	t.Cleanup(func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	})
	m := s.jobs
	check := func(id, rid, events string, cells int) {
		t.Helper()
		w := do(t, s, http.MethodGet, "/v1/runs/"+id+"/timeline", "")
		var tl Timeline
		if err := json.Unmarshal(w.Body.Bytes(), &tl); err != nil {
			t.Fatalf("timeline %s: %v", id, err)
		}
		if got := strings.Join(tl.Core.Events, " "); got != events || len(tl.Core.Cells) != cells {
			t.Fatalf("%s timeline: events %q with %d cells, want %q with %d", id, got, len(tl.Core.Cells), events, cells)
		}
		var want []string
		for _, k := range tl.Core.Events {
			if k == "simulated" {
				for range tl.Core.Cells {
					want = append(want, "cell")
				}
			}
			want = append(want, k)
		}
		var got []string
		for _, ev := range s.flight.Events() {
			f := make(map[string]string)
			for _, fd := range ev.Fields {
				f[fd.Key] = fd.Str
			}
			if f["job"] != id {
				continue
			}
			if f["queue"] != "runs" || f["request_id"] != rid {
				t.Errorf("%s entry %q: queue %q, request_id %q", id, ev.Kind, f["queue"], f["request_id"])
			}
			got = append(got, ev.Kind)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s flight kinds\n got %v\nwant %v", id, got, want)
		}
	}
	submitRID := func(body, rid string) *job {
		t.Helper()
		w := doH(t, s, http.MethodPost, "/v1/runs", body, map[string]string{"X-Request-ID": rid})
		var st JobStatus
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.ID == "" {
			t.Fatalf("submit %s: code %d, body %s", rid, w.Code, w.Body)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.jobs[st.ID]
	}

	// Simulated: submitted, dequeued, five cells, simulated, rendered,
	// finished.
	const body = `{"experiment":"table1","sizes":[64],"seed":3}`
	run := submitRID(body, "flight-run")
	m.run(run)
	check(run.id, "flight-run", "submitted dequeued simulated rendered finished", 5)

	// Inline cache hit: evict the finished record so the resubmission
	// gets a fresh job served straight from the artifact cache.
	m.mu.Lock()
	maxJobs := m.maxJobs
	m.maxJobs = 0
	m.evictLocked()
	m.maxJobs = maxJobs
	m.mu.Unlock()
	hit := submitRID(body, "flight-hit")
	if st, _ := m.status(hit.id); !st.CacheHit || st.State != JobDone {
		t.Fatalf("resubmission not an inline cache hit: %+v", st)
	}
	check(hit.id, "flight-hit", "submitted cache_hit finished", 0)

	// Coalesced waiter: the leader blocks in its Cells factory while an
	// identical job dequeues behind it.
	block := make(chan struct{})
	slow := spec.Experiment{
		Name: "slow",
		Cells: func([]int) []spec.Cell {
			<-block
			return []spec.Cell{{Name: "only", Run: func(*spec.Ctx) error { return nil }}}
		},
		Render: func(spec.Result) string { return "" },
	}
	p := jobParams{exp: slow, seed: 1, key: "slow||1|", requestID: "flight-coalesce"}
	var ids [2]string
	for i := range ids {
		st, herr := m.submit(p)
		if herr != nil {
			t.Fatal(herr)
		}
		ids[i] = st.ID
	}
	m.mu.Lock()
	leader, waiter := m.jobs[ids[0]], m.jobs[ids[1]]
	m.mu.Unlock()
	done := make(chan struct{})
	go func() { m.run(leader); close(done) }()
	for registered := false; !registered; {
		time.Sleep(time.Millisecond)
		m.mu.Lock()
		_, registered = m.flights[p.key]
		m.mu.Unlock()
	}
	m.run(waiter)
	close(block)
	<-done
	check(leader.id, "flight-coalesce", "submitted dequeued simulated rendered finished", 1)
	check(waiter.id, "flight-coalesce", "submitted dequeued coalesced finished", 0)
}

// probeHandler is a slog.Handler that hands every record to fn.
type probeHandler struct{ fn func(slog.Record) }

func (h probeHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h probeHandler) Handle(_ context.Context, r slog.Record) error {
	h.fn(r)
	return nil
}
func (h probeHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h probeHandler) WithGroup(string) slog.Handler      { return h }

// TestJobLogLinesOutsideLock: every job event writes one log line, in
// log order, and the caller-supplied logger never runs while the
// manager's mutex is held. The test drives the job itself, so no other
// goroutine can hold the mutex when a line is written.
func TestJobLogLinesOutsideLock(t *testing.T) {
	var (
		s     *Server
		mu    sync.Mutex
		lines []string
	)
	s = New(Config{Workers: -1, Logger: slog.New(probeHandler{func(r slog.Record) {
		if !strings.HasPrefix(r.Message, "job ") {
			return
		}
		if !s.jobs.mu.TryLock() {
			t.Errorf("%q written under the manager's mutex", r.Message)
		} else {
			s.jobs.mu.Unlock()
		}
		mu.Lock()
		lines = append(lines, strings.TrimPrefix(r.Message, "job "))
		mu.Unlock()
	}})})
	t.Cleanup(func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	})
	st := submit(t, s, `{"experiment":"table1","sizes":[64],"seed":3}`)
	m := s.jobs
	m.mu.Lock()
	j := m.jobs[st.ID]
	m.mu.Unlock()
	m.run(j)
	mu.Lock()
	defer mu.Unlock()
	got := strings.Join(lines, " ")
	if want := "submitted dequeued cell cell cell cell cell simulated rendered finished"; got != want {
		t.Errorf("job log lines\n got %s\nwant %s", got, want)
	}
}
