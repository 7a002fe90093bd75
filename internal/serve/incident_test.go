package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lowcontend/internal/obs"
)

// failingRunBody is a submission that deterministically fails: table2's
// dart throws at size 64 under an EREW override hit a concurrent-write
// violation at the same step for every parallelism.
const failingRunBody = `{"experiment":"table2","sizes":[64],"seed":3,"model":"erew"}`

// TestFailedRunTimelineDeterministicCore: a failed run's timeline core
// — the error, the failing cell's span, exec deltas — is byte-identical
// at cell parallelism 1 and 8 and matches the committed golden, so
// incident evidence can be diffed across daemon configurations.
func TestFailedRunTimelineDeterministicCore(t *testing.T) {
	core := func(parallel int) string {
		s := New(Config{Parallel: parallel})
		defer func() {
			ctx, cancel := testContext(t)
			defer cancel()
			s.Shutdown(ctx)
		}()
		w := doH(t, s, http.MethodPost, "/v1/runs", failingRunBody,
			map[string]string{"X-Request-ID": "incident-run"})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
		}
		var st JobStatus
		json.Unmarshal(w.Body.Bytes(), &st)
		if got := waitDone(t, s, st.ID); got.State != JobFailed {
			t.Fatalf("job state %s, want failed", got.State)
		}
		return timelineCore(t, s, "runs", st.ID)
	}
	c1 := core(1)
	c8 := core(8)
	if c1 != c8 {
		t.Fatalf("failed-run timeline core depends on parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", c1, c8)
	}
	if !strings.Contains(c1, "concurrent-write violation") {
		t.Fatalf("failed-run timeline core does not carry the violation:\n%s", c1)
	}
	checkTimelineGolden(t, "timeline_run_failed_core.golden", c1)
}

// waitIncidents polls the incident listing until it reports at least n
// incidents (capture happens after the job settles, so a client that
// just observed the failed state may be one poll ahead of the store).
func waitIncidents(t *testing.T, s *Server, n int) []IncidentSummary {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		w := do(t, s, http.MethodGet, "/v1/incidents", "")
		if w.Code != http.StatusOK {
			t.Fatalf("incidents: code %d, body %s", w.Code, w.Body)
		}
		var doc struct {
			Count     int               `json:"count"`
			Incidents []IncidentSummary `json:"incidents"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("incidents JSON: %v", err)
		}
		if doc.Count >= n {
			return doc.Incidents
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("incident store never reached %d incidents", n)
	return nil
}

// TestJobFailureIncidentDeterministicCore: a failed job captures an
// incident whose deterministic core — trigger, error, embedded timeline
// core, summed exec delta — is byte-identical at any job parallelism
// and matches the committed golden; the wall half carries the capture
// time and flight tail.
func TestJobFailureIncidentDeterministicCore(t *testing.T) {
	capture := func(parallel int) (string, string) {
		s := New(Config{Parallel: parallel})
		defer func() {
			ctx, cancel := testContext(t)
			defer cancel()
			s.Shutdown(ctx)
		}()
		w := doH(t, s, http.MethodPost, "/v1/runs", failingRunBody,
			map[string]string{"X-Request-ID": "incident-run"})
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
		}
		var st JobStatus
		json.Unmarshal(w.Body.Bytes(), &st)
		waitDone(t, s, st.ID)
		incs := waitIncidents(t, s, 1)
		if incs[0].Trigger != TriggerJobFailed || incs[0].JobID != st.ID {
			t.Fatalf("incident summary %+v, want job_failed for %s", incs[0], st.ID)
		}
		w = do(t, s, http.MethodGet, "/v1/incidents/"+incs[0].ID, "")
		if w.Code != http.StatusOK {
			t.Fatalf("incident %s: code %d, body %s", incs[0].ID, w.Code, w.Body)
		}
		var doc struct {
			ID   string          `json:"id"`
			Core json.RawMessage `json:"core"`
			Wall IncidentWall    `json:"wall"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
			t.Fatalf("incident JSON: %v", err)
		}
		if doc.Wall.Captured.IsZero() {
			t.Error("incident wall lacks a capture time")
		}
		if len(doc.Wall.Flight) == 0 {
			t.Error("incident wall lacks a flight tail")
		}
		return doc.ID, string(doc.Core)
	}
	id1, c1 := capture(1)
	id8, c8 := capture(8)
	if id1 != id8 {
		t.Errorf("incident ids differ across parallelism: %s vs %s", id1, id8)
	}
	if c1 != c8 {
		t.Fatalf("incident core depends on parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", c1, c8)
	}
	checkTimelineGolden(t, "incident_run_core.golden", c1)

	// An unknown incident id is a 404, not a panic.
	s := newTestServer(t)
	if w := do(t, s, http.MethodGet, "/v1/incidents/inc-999", ""); w.Code != http.StatusNotFound {
		t.Errorf("unknown incident: code %d, want 404", w.Code)
	}
}

// TestJobIncidentSurvivesEviction: a concurrent submit may evict a
// failed job from the table between its finish and its incident
// capture. The capture folds the job record itself, so the incident
// still lands with the job's full timeline core.
func TestJobIncidentSurvivesEviction(t *testing.T) {
	s := newStalledServer(t) // no workers; the test drives the job itself
	m := s.jobs
	store := m.incidents
	m.incidents = nil // finish without the automatic capture
	w := doH(t, s, http.MethodPost, "/v1/runs", failingRunBody,
		map[string]string{"X-Request-ID": "incident-run"})
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
	}
	var st JobStatus
	json.Unmarshal(w.Body.Bytes(), &st)
	m.mu.Lock()
	j := m.jobs[st.ID]
	m.mu.Unlock()
	m.run(j)
	if fin, _ := m.status(st.ID); fin.State != JobFailed {
		t.Fatalf("job state %s, want failed", fin.State)
	}

	m.mu.Lock()
	m.maxJobs = 0
	m.evictLocked()
	m.mu.Unlock()
	if _, ok := m.status(st.ID); ok {
		t.Fatal("failed job survived eviction")
	}
	m.incidents = store
	m.captureJobIncident(j)

	incs := store.list()
	if len(incs) != 1 || incs[0].Trigger != TriggerJobFailed || incs[0].JobID != st.ID {
		t.Fatalf("incidents %+v, want one job_failed for %s", incs, st.ID)
	}
	w = do(t, s, http.MethodGet, "/v1/incidents/"+incs[0].ID, "")
	var doc struct {
		Core json.RawMessage `json:"core"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("incident JSON: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "incident_run_core.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if string(doc.Core) != string(want) {
		t.Errorf("evicted job's incident core differs from incident_run_core.golden:\n%s", doc.Core)
	}
}

// TestBackpressureBurstIncident: a burst of 503 backpressure rejections
// inside the window fires one backpressure_burst incident carrying the
// rejection count.
func TestBackpressureBurstIncident(t *testing.T) {
	s := New(Config{
		Workers: -1, QueueDepth: 1, MaxJobs: 16, CacheEntries: 8,
		BackpressureBurst: 3,
	})
	// Workers: -1 means nothing drains: maxLive (2*1+0 = 2) accepted,
	// everything after refused with 503.
	rejected := 0
	for i := range 8 {
		body := fmt.Sprintf(`{"experiment":"table1","sizes":[16],"seed":%d}`, i)
		if w := do(t, s, http.MethodPost, "/v1/runs", body); w.Code == http.StatusServiceUnavailable {
			rejected++
		}
	}
	if rejected < 3 {
		t.Fatalf("only %d rejections, want >= 3", rejected)
	}
	incs := waitIncidents(t, s, 1)
	if incs[0].Trigger != TriggerBackpressureBurst {
		t.Fatalf("incident trigger %q, want %s", incs[0].Trigger, TriggerBackpressureBurst)
	}
	w := do(t, s, http.MethodGet, "/v1/incidents/"+incs[0].ID, "")
	var inc Incident
	if err := json.Unmarshal(w.Body.Bytes(), &inc); err != nil {
		t.Fatalf("incident JSON: %v", err)
	}
	if inc.Core.Rejections < 3 {
		t.Errorf("incident rejections = %d, want >= 3", inc.Core.Rejections)
	}
	if inc.Core.Endpoint != "POST /v1/runs" {
		t.Errorf("incident endpoint = %q, want POST /v1/runs", inc.Core.Endpoint)
	}
}

// TestLatencyBreachIncident: an SLO latency objective arms the
// latency-breach trigger for its endpoint; a request slower than the
// threshold captures an incident naming the objective it broke.
func TestLatencyBreachIncident(t *testing.T) {
	s := New(Config{
		SLOs: []obs.Objective{{Endpoint: "GET /healthz", Quantile: 0.99, LatencySeconds: 1e-12}},
	})
	defer func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if w := do(t, s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("healthz: code %d", w.Code)
	}
	incs := waitIncidents(t, s, 1)
	if incs[0].Trigger != TriggerLatencyBreach {
		t.Fatalf("incident trigger %q, want %s", incs[0].Trigger, TriggerLatencyBreach)
	}
	if incs[0].Endpoint != "GET /healthz" {
		t.Errorf("incident endpoint = %q, want GET /healthz", incs[0].Endpoint)
	}
	if !strings.Contains(incs[0].Error, "exceeded") {
		t.Errorf("incident error %q does not name the breach", incs[0].Error)
	}
	// The cooldown suppresses an immediate duplicate.
	do(t, s, http.MethodGet, "/healthz", "")
	if got := waitIncidents(t, s, 1); len(got) != 1 {
		t.Errorf("cooldown let a duplicate through: %d incidents", len(got))
	}
}

// TestIncidentStoreBounding: the store retains at most its bound,
// evicting oldest-first, while the captured total keeps counting.
func TestIncidentStoreBounding(t *testing.T) {
	s := New(Config{})
	s.incidents.max = 2 // before any submission, so no capture races it
	defer func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	}()
	// Failed outcomes are never cached and sequential submissions never
	// coalesce, so each resubmission fails — and captures — again.
	for range 3 {
		st := submit(t, s, failingRunBody)
		waitDone(t, s, st.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		captured, retained := s.incidents.counts()
		if captured >= 3 {
			if retained != 2 {
				t.Fatalf("retained %d incidents, want 2", retained)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("captured %d incidents, want >= 3", captured)
		}
		time.Sleep(5 * time.Millisecond)
	}
	incs := waitIncidents(t, s, 2)
	if len(incs) != 2 {
		t.Fatalf("listing has %d incidents, want 2", len(incs))
	}
	// Newest first, and the evicted first capture is gone.
	if incs[0].ID != "inc-3" || incs[1].ID != "inc-2" {
		t.Errorf("listing order [%s %s], want [inc-3 inc-2]", incs[0].ID, incs[1].ID)
	}
	if w := do(t, s, http.MethodGet, "/v1/incidents/inc-1", ""); w.Code != http.StatusNotFound {
		t.Errorf("evicted incident still served: code %d", w.Code)
	}
}

// TestSLOEndpoint: /v1/slo reports every configured objective with
// per-window attainment; generous objectives over healthy traffic hold.
func TestSLOEndpoint(t *testing.T) {
	s := New(Config{
		SLOs: []obs.Objective{
			{Endpoint: "GET /healthz", Quantile: 0.99, LatencySeconds: 5, MaxErrorRate: 0.1},
			{Endpoint: "POST /v1/runs", Quantile: 0.9, LatencySeconds: 5},
		},
	})
	defer func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	}()
	for range 5 {
		do(t, s, http.MethodGet, "/healthz", "")
	}
	st := submit(t, s, `{"experiment":"table1","sizes":[64]}`)
	waitDone(t, s, st.ID)

	w := do(t, s, http.MethodGet, "/v1/slo", "")
	if w.Code != http.StatusOK {
		t.Fatalf("slo: code %d", w.Code)
	}
	var rep obs.SLOReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("slo JSON: %v", err)
	}
	if len(rep.Objectives) != 2 {
		t.Fatalf("%d objectives, want 2", len(rep.Objectives))
	}
	for _, o := range rep.Objectives {
		if !o.OK {
			t.Errorf("objective %s not ok under generous thresholds: %+v", o.Objective.Endpoint, o)
		}
		if len(o.Windows) != len(obs.DefaultSLOWindows) {
			t.Errorf("objective %s has %d windows, want %d", o.Objective.Endpoint, len(o.Windows), len(obs.DefaultSLOWindows))
		}
		for _, win := range o.Windows {
			if win.Attainment < 0 || win.Attainment > 1 {
				t.Errorf("objective %s attainment %v out of [0,1]", o.Objective.Endpoint, win.Attainment)
			}
		}
	}
	healthz := rep.Objectives[0]
	if healthz.Windows[0].Total < 5 {
		t.Errorf("healthz window total %d, want >= 5", healthz.Windows[0].Total)
	}

	// The Prometheus scrape exports the burn gauges.
	w = do(t, s, http.MethodGet, "/metrics?format=prometheus", "")
	body := w.Body.String()
	for _, want := range []string{
		`lowcontend_slo_attainment{endpoint="GET /healthz",window="300s"}`,
		`lowcontend_slo_latency_burn_rate{endpoint="GET /healthz"`,
		`lowcontend_slo_error_burn_rate{endpoint="GET /healthz"`,
		`lowcontend_slo_ok{endpoint="POST /v1/runs"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus scrape missing %q", want)
		}
	}
}

// TestContentionSampling: with ContentionSample=1 every simulated run
// is profiled into /v1/contention, the sampled job's served result
// stays free of profiles, and the sampled outcome is never cached.
func TestContentionSampling(t *testing.T) {
	s := New(Config{ContentionSample: 1})
	defer func() {
		ctx, cancel := testContext(t)
		defer cancel()
		s.Shutdown(ctx)
	}()
	const body = `{"experiment":"table1","sizes":[64],"seed":7}`
	st := submit(t, s, body)
	waitDone(t, s, st.ID)

	// The forced profile never reaches the client: neither the status
	// result nor the profile endpoint (the run wasn't submitted with
	// "profile": true).
	w := do(t, s, http.MethodGet, "/v1/runs/"+st.ID, "")
	if strings.Contains(w.Body.String(), `"profiles"`) {
		t.Error("sampled run's served result carries profiles")
	}
	if w := do(t, s, http.MethodGet, "/v1/runs/"+st.ID+"/profile", ""); w.Code != http.StatusConflict {
		t.Errorf("profile endpoint on a sampler-forced run: code %d, want 409", w.Code)
	}

	// Sampled outcomes bypass the cache: an identical resubmission
	// simulates (and samples) again.
	st2 := submit(t, s, body)
	if st2.CacheHit {
		t.Error("sampled outcome was served from the cache")
	}
	waitDone(t, s, st2.ID)

	w = do(t, s, http.MethodGet, "/v1/contention", "")
	if w.Code != http.StatusOK {
		t.Fatalf("contention: code %d", w.Code)
	}
	var rep ContentionReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("contention JSON: %v", err)
	}
	if !rep.Enabled || rep.SampleEvery != 1 {
		t.Errorf("report enabled=%v every=%d, want enabled every=1", rep.Enabled, rep.SampleEvery)
	}
	if rep.JobsSeen < 2 || rep.JobsSampled < 2 {
		t.Errorf("seen=%d sampled=%d, want >= 2 each", rep.JobsSeen, rep.JobsSampled)
	}
	if len(rep.Samples) < 2 || rep.Aggregate == nil {
		t.Fatalf("samples=%d aggregate=%v, want >= 2 samples with an aggregate", len(rep.Samples), rep.Aggregate)
	}
	smp := rep.Samples[0]
	if !smp.Forced || smp.Steps == 0 || smp.Model == "" {
		t.Errorf("sample %+v: want forced with steps and a model", smp)
	}
	if rep.Aggregate.Steps < 2*smp.Steps {
		t.Errorf("aggregate steps %d, want >= %d (two folded samples)", rep.Aggregate.Steps, 2*smp.Steps)
	}

	// An explicitly profiled run folds into the view unforced and still
	// serves its rendered profile.
	stp := submit(t, s, `{"experiment":"table1","sizes":[64],"seed":7,"profile":true}`)
	waitDone(t, s, stp.ID)
	if w := do(t, s, http.MethodGet, "/v1/runs/"+stp.ID+"/profile", ""); w.Code != http.StatusOK {
		t.Errorf("explicit profile endpoint: code %d, body %s", w.Code, w.Body)
	}
	w = do(t, s, http.MethodGet, "/v1/contention", "")
	json.Unmarshal(w.Body.Bytes(), &rep)
	var unforced bool
	for _, sm := range rep.Samples {
		if !sm.Forced {
			unforced = true
		}
	}
	if !unforced {
		t.Error("explicitly profiled run did not fold into the contention view")
	}
}

// TestContentionDisabledByDefault: without ContentionSample the view is
// off, nothing samples, and successful runs cache normally.
func TestContentionDisabledByDefault(t *testing.T) {
	s := newTestServer(t)
	st := submit(t, s, `{"experiment":"table1","sizes":[64],"seed":7}`)
	waitDone(t, s, st.ID)
	st2 := submit(t, s, `{"experiment":"table1","sizes":[64],"seed":7}`)
	if !st2.CacheHit {
		t.Error("unsampled outcome was not cached")
	}
	w := do(t, s, http.MethodGet, "/v1/contention", "")
	var rep ContentionReport
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("contention JSON: %v", err)
	}
	if rep.Enabled || rep.JobsSampled != 0 {
		t.Errorf("disabled view reports enabled=%v sampled=%d", rep.Enabled, rep.JobsSampled)
	}
	if rep.Samples == nil {
		t.Error("samples is null, want []")
	}
}
