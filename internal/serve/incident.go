package serve

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"lowcontend/internal/machine"
	"lowcontend/internal/obs"
)

// This file implements incident capture: when an anomaly trigger fires
// — a job fails (model violations included), a non-backpressure 5xx is
// served, 503 backpressure rejections burst, or a request breaches its
// endpoint's SLO latency threshold — the daemon snapshots the evidence
// that /metrics has already averaged away: the offending job's full
// timeline with per-cell exec deltas, and the flight-recorder tail
// around the moment. Incidents land in a bounded in-memory store,
// listable at GET /v1/incidents and fetchable at /v1/incidents/{id}.
//
// Like timelines, the document splits into a deterministic core and a
// wall-clock half: for a failed run the core (trigger, error, embedded
// timeline core, summed exec delta) is byte-identical at any job
// parallelism, so CI can diff it across configurations; everything
// stamped by the clock — capture time, latencies, the flight tail —
// stays in Wall.

// Incident trigger kinds.
const (
	TriggerJobFailed         = "job_failed"
	TriggerHTTP5xx           = "http_5xx"
	TriggerBackpressureBurst = "backpressure_burst"
	TriggerLatencyBreach     = "latency_breach"
)

// IncidentCore is the deterministic half of an incident. Its exec
// delta, like every engine counter, is determined by the program.
type IncidentCore struct {
	Trigger string `json:"trigger"`
	// Kind/JobID identify the failed job for job_failed incidents.
	Kind  string `json:"kind,omitempty"`
	JobID string `json:"job_id,omitempty"`
	// Endpoint/Status/RequestID identify the offending request for
	// HTTP-edge incidents.
	Endpoint  string `json:"endpoint,omitempty"`
	Status    int    `json:"status,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error,omitempty"`
	// Rejections is the 503 count that crossed the burst threshold.
	Rejections int `json:"rejections,omitempty"`
	// Timeline embeds the failed job's deterministic timeline core;
	// Exec is its exec delta summed over cells.
	Timeline *TimelineCore      `json:"timeline,omitempty"`
	Exec     *machine.ExecStats `json:"exec,omitempty"`
}

// IncidentWall is the wall-clock half of an incident: when it was
// captured, the offending request's latency, the job's timing spans,
// and the flight-recorder tail at capture time.
type IncidentWall struct {
	Captured       time.Time       `json:"captured"`
	LatencySeconds float64         `json:"latency_seconds,omitempty"`
	Timing         *TimelineTiming `json:"timing,omitempty"`
	Flight         []obs.Event     `json:"flight,omitempty"`
}

// Incident is the wire form of GET /v1/incidents/{id}.
type Incident struct {
	ID   string       `json:"id"`
	Core IncidentCore `json:"core"`
	Wall IncidentWall `json:"wall"`
}

// IncidentSummary is one entry of the GET /v1/incidents listing.
type IncidentSummary struct {
	ID       string    `json:"id"`
	Trigger  string    `json:"trigger"`
	Kind     string    `json:"kind,omitempty"`
	JobID    string    `json:"job_id,omitempty"`
	Endpoint string    `json:"endpoint,omitempty"`
	Status   int       `json:"status,omitempty"`
	Error    string    `json:"error,omitempty"`
	Captured time.Time `json:"captured"`
}

// flightTailEvents bounds the flight-recorder tail attached to one
// incident, so a large ring doesn't make every incident huge.
const flightTailEvents = 64

const (
	// maxIncidents bounds the daemon's retained incident store; the
	// oldest incidents are evicted past it.
	maxIncidents = 32
	// incidentCooldown rate-limits repeated captures of one HTTP-edge
	// trigger kind, so a persistent anomaly yields periodic evidence
	// instead of evicting its own history. Job-failure captures are
	// never rate-limited.
	incidentCooldown = 30 * time.Second
	// burstWindow is the sliding window for backpressure burst
	// detection.
	burstWindow = 10 * time.Second
)

// incidentStore is the bounded in-memory incident table plus the
// trigger state machines that feed it: a sliding 503 window for burst
// detection and per-trigger cooldowns so a persistent anomaly yields
// periodic evidence instead of evicting its own history.
type incidentStore struct {
	max        int
	flight     *obs.Flight
	cooldown   time.Duration
	burstN     int
	burstWin   time.Duration
	thresholds map[string]float64 // endpoint → SLO latency threshold, seconds

	mu          sync.Mutex
	nextID      int
	captured    int64 // total captures, monotone
	order       []string
	byID        map[string]*Incident
	lastCapture map[string]time.Time // HTTP-edge trigger → last capture
	rejections  []time.Time          // recent 503s inside burstWin
}

func newIncidentStore(max int, flight *obs.Flight, burstN int, thresholds map[string]float64) *incidentStore {
	return &incidentStore{
		max:         max,
		flight:      flight,
		cooldown:    incidentCooldown,
		burstN:      burstN,
		burstWin:    burstWindow,
		thresholds:  thresholds,
		byID:        make(map[string]*Incident),
		lastCapture: make(map[string]time.Time),
	}
}

// capture stores one incident, stamping its id, capture time, and the
// flight tail, and evicts the oldest past the bound. Nil-safe so
// callers can wire triggers unconditionally.
func (st *incidentStore) capture(core IncidentCore, wall IncidentWall) *Incident {
	if st == nil {
		return nil
	}
	wall.Captured = time.Now().UTC()
	wall.Flight = st.flight.Tail(flightTailEvents)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	st.captured++
	inc := &Incident{ID: fmt.Sprintf("inc-%d", st.nextID), Core: core, Wall: wall}
	st.byID[inc.ID] = inc
	st.order = append(st.order, inc.ID)
	for len(st.order) > st.max {
		delete(st.byID, st.order[0])
		st.order = st.order[1:]
	}
	return inc
}

// captureJob snapshots a failed job from its timeline document.
func (st *incidentStore) captureJob(doc Timeline) *Incident {
	if st == nil {
		return nil
	}
	var ex machine.ExecStats
	for _, c := range doc.Core.Cells {
		ex = ex.Add(c.Exec)
	}
	return st.capture(IncidentCore{
		Trigger:   TriggerJobFailed,
		Kind:      doc.Core.Kind,
		JobID:     doc.ID,
		RequestID: doc.Core.RequestID,
		Error:     doc.Core.Error,
		Timeline:  &doc.Core,
		Exec:      &ex,
	}, IncidentWall{Timing: &doc.Timing})
}

// allowLocked rate-limits one HTTP-edge trigger kind.
func (st *incidentStore) allowLocked(trigger string, now time.Time) bool {
	if last, ok := st.lastCapture[trigger]; ok && now.Sub(last) < st.cooldown {
		return false
	}
	st.lastCapture[trigger] = now
	return true
}

// observeHTTP runs the HTTP-edge triggers against one served request.
// Called from the tracing middleware after the response is written.
func (st *incidentStore) observeHTTP(endpoint string, status int, elapsed time.Duration, requestID string) {
	if st == nil {
		return
	}
	now := time.Now().UTC()
	switch {
	case status == http.StatusServiceUnavailable:
		// Backpressure rejections are individually healthy — the queue
		// doing its job — but a burst of them is an incident.
		st.mu.Lock()
		st.rejections = append(st.rejections, now)
		cut := 0
		for cut < len(st.rejections) && now.Sub(st.rejections[cut]) > st.burstWin {
			cut++
		}
		st.rejections = st.rejections[cut:]
		n := len(st.rejections)
		fire := n >= st.burstN && st.allowLocked(TriggerBackpressureBurst, now)
		if fire {
			st.rejections = st.rejections[:0]
		}
		st.mu.Unlock()
		if fire {
			st.capture(IncidentCore{
				Trigger:    TriggerBackpressureBurst,
				Endpoint:   endpoint,
				Status:     status,
				RequestID:  requestID,
				Rejections: n,
			}, IncidentWall{LatencySeconds: elapsed.Seconds()})
		}
	case status >= 500:
		st.mu.Lock()
		fire := st.allowLocked(TriggerHTTP5xx, now)
		st.mu.Unlock()
		if fire {
			st.capture(IncidentCore{
				Trigger:   TriggerHTTP5xx,
				Endpoint:  endpoint,
				Status:    status,
				RequestID: requestID,
			}, IncidentWall{LatencySeconds: elapsed.Seconds()})
		}
	default:
		thr, ok := st.thresholds[endpoint]
		if !ok || elapsed.Seconds() <= thr {
			return
		}
		st.mu.Lock()
		fire := st.allowLocked(TriggerLatencyBreach, now)
		st.mu.Unlock()
		if fire {
			st.capture(IncidentCore{
				Trigger:   TriggerLatencyBreach,
				Endpoint:  endpoint,
				Status:    status,
				RequestID: requestID,
				Error:     fmt.Sprintf("latency %.3fs exceeded the %gs objective", elapsed.Seconds(), thr),
			}, IncidentWall{LatencySeconds: elapsed.Seconds()})
		}
	}
}

// list returns summaries newest-first; the slice is never nil.
func (st *incidentStore) list() []IncidentSummary {
	out := []IncidentSummary{}
	if st == nil {
		return out
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := len(st.order) - 1; i >= 0; i-- {
		inc := st.byID[st.order[i]]
		out = append(out, IncidentSummary{
			ID:       inc.ID,
			Trigger:  inc.Core.Trigger,
			Kind:     inc.Core.Kind,
			JobID:    inc.Core.JobID,
			Endpoint: inc.Core.Endpoint,
			Status:   inc.Core.Status,
			Error:    inc.Core.Error,
			Captured: inc.Wall.Captured,
		})
	}
	return out
}

func (st *incidentStore) get(id string) (*Incident, bool) {
	if st == nil {
		return nil, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	inc, ok := st.byID[id]
	return inc, ok
}

// counts reports total captures and currently retained incidents.
func (st *incidentStore) counts() (captured, retained int64) {
	if st == nil {
		return 0, 0
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.captured, int64(len(st.order))
}
