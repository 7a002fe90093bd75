package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"lowcontend/internal/obs"
)

// serverObs bundles the daemon's latency histograms. All four use the
// default bucket layout; label sets are bounded by construction (route
// patterns, status codes, and the two queue names), never by request
// content.
type serverObs struct {
	// httpLatency observes every HTTP request, labeled by the ServeMux
	// route pattern that served it ("unmatched" when none did) and the
	// response status code.
	httpLatency *obs.HistogramVec
	// queueWait observes submit-to-dequeue wait per queue; cacheable
	// submissions completed inline never enter a queue and never count.
	queueWait *obs.HistogramVec
	// cellDur observes wall-clock duration per executed experiment
	// cell, labeled by the queue that ran it.
	cellDur *obs.HistogramVec
	// renderDur observes artifact (and profile) render time per queue.
	renderDur *obs.HistogramVec
}

func newServerObs() *serverObs {
	return &serverObs{
		httpLatency: obs.NewHistogramVec("lowcontend_http_request_duration_seconds",
			"HTTP request latency by route pattern and status.", []string{"endpoint", "status"}, nil),
		queueWait: obs.NewHistogramVec("lowcontend_queue_wait_seconds",
			"Job wait from accepted submission to worker dequeue.", []string{"queue"}, nil),
		cellDur: obs.NewHistogramVec("lowcontend_cell_duration_seconds",
			"Wall-clock duration of one executed experiment cell.", []string{"queue"}, nil),
		renderDur: obs.NewHistogramVec("lowcontend_render_duration_seconds",
			"Artifact and profile render time.", []string{"queue"}, nil),
	}
}

// --- request IDs ------------------------------------------------------

type ctxKey int

const requestIDKey ctxKey = iota

// RequestIDFrom returns the request ID the tracing middleware attached
// to the context, or "" outside a traced request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// maxRequestIDLen bounds accepted X-Request-ID values so a hostile
// header cannot bloat logs and job records.
const maxRequestIDLen = 128

// sanitizeRequestID accepts a client-supplied request ID when it is
// printable, headerish, and bounded; anything else is discarded and
// replaced by a generated ID.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c >= 0x7f {
			return ""
		}
	}
	return id
}

func newRequestID() string {
	var b [8]byte
	rand.Read(b[:]) // crypto/rand.Read never fails (it panics instead, Go 1.24)
	return "r-" + hex.EncodeToString(b[:])
}

// --- middleware -------------------------------------------------------

// statusRecorder captures the response status for the latency
// histogram's status label.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// withObs is the tracing middleware wrapped around the route mux:
// accept or mint the request ID, echo it on the response, thread it
// through the context for handlers to attach to jobs, then observe the
// request's latency under its route pattern (read off http.Request
// after the mux dispatched — the mux records the matched pattern on
// the request it was handed) and emit one structured log line.
func (s *Server) withObs(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, rid))
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sr, r)
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		elapsed := time.Since(start)
		s.obs.httpLatency.With(endpoint, strconv.Itoa(sr.status)).Observe(elapsed)
		s.flight.Record("http", obs.FStr("endpoint", endpoint),
			obs.FInt("status", int64(sr.status)), obs.FStr("request_id", rid),
			obs.FInt("elapsed_us", elapsed.Microseconds()))
		s.incidents.observeHTTP(endpoint, sr.status, elapsed, rid)
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "http",
			slog.String("request_id", rid),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", sr.status),
			slog.Duration("elapsed", elapsed),
		)
	})
}

// --- Prometheus exposition -------------------------------------------

// promContentType is the text exposition format content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// renderProm renders the daemon's full Prometheus scrape: the four
// latency histogram families, every flat JSON /metrics counter as a
// lowcontend_-prefixed gauge (sorted by key, so the document is stable
// across scrapes), and the engine's always-zero exec_* gauges.
func (s *Server) renderProm() []byte {
	var e obs.Exposition
	e.HistogramVec(s.obs.httpLatency)
	e.HistogramVec(s.obs.queueWait)
	e.HistogramVec(s.obs.cellDur)
	e.HistogramVec(s.obs.renderDur)

	snap := s.metricsSnapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "lowcontend_" + k
		e.Header(name, strings.ReplaceAll(k, "_", " ")+" (see GET /metrics).", "gauge")
		e.Int(name, nil, snap[k])
	}

	// The engine has no step-execution gang, so these always read 0;
	// the names stay for scrapers.
	for _, name := range []string{"gang_sharded_settles", "chunks_claimed", "cursor_steals", "cutoff_raises", "cutoff_lowers"} {
		n := "lowcontend_exec_" + name
		e.Header(n, "Always 0: the engine runs every step on one goroutine.", "gauge")
		e.Int(n, nil, 0)
	}

	if rep := s.sloReport(); len(rep.Objectives) > 0 {
		e.Header("lowcontend_slo_attainment",
			"Rolling-window SLO attainment per objective (1 = every request met it).", "gauge")
		for _, o := range rep.Objectives {
			for _, w := range o.Windows {
				e.Float("lowcontend_slo_attainment", sloLabels(o, w), w.Attainment)
			}
		}
		e.Header("lowcontend_slo_latency_burn_rate",
			"Latency error-budget burn rate per objective and window (1 = exactly on budget).", "gauge")
		for _, o := range rep.Objectives {
			for _, w := range o.Windows {
				e.Float("lowcontend_slo_latency_burn_rate", sloLabels(o, w), w.LatencyBurnRate)
			}
		}
		e.Header("lowcontend_slo_error_burn_rate",
			"Error-rate budget burn rate per objective and window.", "gauge")
		for _, o := range rep.Objectives {
			for _, w := range o.Windows {
				e.Float("lowcontend_slo_error_burn_rate", sloLabels(o, w), w.ErrorBurnRate)
			}
		}
		e.Header("lowcontend_slo_ok",
			"Whether the objective currently holds across all windows (1 = ok).", "gauge")
		for _, o := range rep.Objectives {
			v := int64(0)
			if o.OK {
				v = 1
			}
			e.Int("lowcontend_slo_ok", []obs.Label{{Name: "endpoint", Value: o.Objective.Endpoint}}, v)
		}
	}
	return e.Bytes()
}

// sloLabels labels one objective×window SLO sample.
func sloLabels(o obs.ObjectiveReport, w obs.WindowReport) []obs.Label {
	return []obs.Label{
		{Name: "endpoint", Value: o.Objective.Endpoint},
		{Name: "window", Value: strconv.FormatInt(int64(w.WindowSeconds), 10) + "s"},
	}
}

// --- pprof ------------------------------------------------------------

// DebugHandler returns the daemon's debug mux: the net/http/pprof
// endpoints under /debug/pprof/ and the flight-recorder dump at
// /debug/flight. It is deliberately not part of the service Handler —
// cmd/lowcontendd binds it on a separate listener only when
// -debug-addr is set, so the profiling and raw-event surface is never
// exposed on the service address by default.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	return mux
}

// handleFlight dumps the flight-recorder ring, oldest event first.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	events := s.flight.Events()
	writeJSON(w, http.StatusOK, map[string]any{
		"recorded": s.flight.Recorded(),
		"count":    len(events),
		"events":   events,
	})
}
