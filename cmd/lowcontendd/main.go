// Command lowcontendd serves the experiment registry as a long-lived
// JSON HTTP daemon — the service counterpart of the lowcontend CLI.
//
// Usage:
//
//	lowcontendd [flags]
//
// Flags:
//
//	-addr host:port   listen address (default from LOWCONTEND_ADDR, then
//	                  PORT, then :8080)
//	-workers N        run worker goroutines (default 2)
//	-sweep-workers N  sweep worker goroutines (default 1; a sweep is a
//	                  whole grid of runs)
//	-queue N          bounded job queue depth, per queue (default 32)
//	-parallel N       per-job cell parallelism when a request omits it (default 1)
//	-max-size N       largest accepted problem size per request (default 1<<20)
//	-drain D          graceful-shutdown drain timeout (default 30s)
//	-debug-addr A     when set, serve net/http/pprof and the flight-recorder
//	                  dump (/debug/flight) on a second listener at A; the
//	                  service address never exposes them
//	-slo SPEC         repeatable per-endpoint SLO objective, e.g.
//	                  "POST /v1/runs,p=0.99,latency=250ms,errors=0.01";
//	                  served at GET /v1/slo, exported as burn-rate gauges,
//	                  and arming the latency-breach incident trigger
//	-flight N         flight-recorder ring size in events (default 256)
//	-incident-burst N 503 rejections within 10s that constitute a
//	                  backpressure incident (default 10)
//	-contention-sample N  profile every Nth run job into the rolling
//	                  contention view at GET /v1/contention (default 0 =
//	                  off; sampled runs bypass the artifact cache)
//
// Every request is traced: an X-Request-ID header is accepted (or
// minted), echoed on the response, threaded into the job it submits,
// and logged in the structured request log on stderr. GET /metrics
// serves flat JSON counters by default and the Prometheus text
// exposition — latency histograms included — under ?format=prometheus;
// GET /v1/runs/{id}/timeline (sweeps alike) serves the job's recorded
// lifecycle timeline.
//
// Endpoints: GET /v1/experiments (full descriptors: id, origin, cell
// counts, models, phase names), POST /v1/experiments (store a dynamic
// definition; 201 with its content id, idempotent re-POST 200),
// GET /v1/experiments/{id} (stored canonical document),
// DELETE /v1/experiments/{id} (builtins are 403), GET /v1/runs
// (listing, ?state= filter), POST /v1/runs (builtin name or dynamic
// content id/name, with optional "model" override and "profile": true),
// GET /v1/runs/{id}, GET /v1/runs/{id}/artifact,
// GET /v1/runs/{id}/profile, GET /v1/sweeps (listing),
// POST /v1/sweeps ({experiment, models?, sizes?, seeds?} cross-model
// scenario grids), GET /v1/sweeps/{id}, GET /v1/sweeps/{id}/artifact,
// GET /healthz, GET /metrics. Every error is the structured envelope
// {"error":{"code","message","path"}}. Identical submissions are
// served from the artifact cache — determinism makes cached artifacts
// byte-exact (dynamic experiments are cache-keyed by content id) —
// and SIGINT or SIGTERM drains running jobs before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lowcontend/internal/obs"
	"lowcontend/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", defaultAddr(), "listen address (env LOWCONTEND_ADDR or PORT override the default)")
	workers := flag.Int("workers", 2, "run worker goroutines")
	sweepWorkers := flag.Int("sweep-workers", 1, "sweep worker goroutines")
	queue := flag.Int("queue", 32, "bounded job queue depth, per queue")
	parallel := flag.Int("parallel", 1, "per-job cell parallelism when a request omits it")
	maxSize := flag.Int("max-size", serve.DefaultLimits().MaxSize, "largest accepted problem size per request")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /debug/flight on this second listener (empty = disabled)")
	flightEvents := flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder ring size in events")
	incidentBurst := flag.Int("incident-burst", 10, "503 rejections within the burst window that constitute an incident")
	contentionSample := flag.Int("contention-sample", 0, "profile every Nth run job into /v1/contention (0 = off)")
	var slos []obs.Objective
	flag.Func("slo", `per-endpoint SLO objective, repeatable (e.g. "POST /v1/runs,p=0.99,latency=250ms,errors=0.01")`,
		func(v string) error {
			o, err := obs.ParseObjective(v)
			if err != nil {
				return err
			}
			slos = append(slos, o)
			return nil
		})
	flag.Parse()

	// serve.Config gives negative Workers a tests-only meaning (zero
	// workers: jobs queue forever), so an operator typo must not reach
	// it — refuse non-positive tuning values outright.
	if *workers < 1 || *sweepWorkers < 1 || *queue < 1 || *parallel < 1 || *maxSize < 1 || *drain <= 0 {
		fmt.Fprintf(os.Stderr, "lowcontendd: -workers, -sweep-workers, -queue, -parallel, -max-size must be >= 1 and -drain positive\n")
		return 2
	}
	if *flightEvents < 1 || *incidentBurst < 1 || *contentionSample < 0 {
		fmt.Fprintf(os.Stderr, "lowcontendd: -flight and -incident-burst must be >= 1 and -contention-sample >= 0\n")
		return 2
	}

	srv := serve.New(serve.Config{
		Workers:           *workers,
		SweepWorkers:      *sweepWorkers,
		QueueDepth:        *queue,
		Parallel:          *parallel,
		Limits:            serve.Limits{MaxSize: *maxSize},
		Logger:            slog.New(slog.NewTextHandler(os.Stderr, nil)),
		FlightEvents:      *flightEvents,
		BackpressureBurst: *incidentBurst,
		ContentionSample:  *contentionSample,
		SLOs:              slos,
	})

	// Listen explicitly (rather than ListenAndServe) so -addr :0 binds
	// an ephemeral port and the printed address tells callers — smoke
	// tests, scripts — where the daemon actually lives.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lowcontendd: %v\n", err)
		return 1
	}
	fmt.Printf("lowcontendd listening on %s\n", ln.Addr())

	// Connection timeouts bound hostile clients: slowloris headers,
	// trickled bodies, and parked keep-alives must not pin goroutines
	// forever (or eat the whole -drain budget at shutdown).
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	// The profiling surface is opt-in and lives on its own listener so
	// operators can bind it to loopback while the service address is
	// public. Best-effort: the daemon outlives its debug listener.
	var ds *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lowcontendd: debug listener: %v\n", err)
			return 1
		}
		fmt.Printf("lowcontendd debug (pprof) on %s\n", dln.Addr())
		ds = &http.Server{Handler: srv.DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ds.Serve(dln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "lowcontendd: debug server: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "lowcontendd: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()

	fmt.Println("lowcontendd draining")
	// Each phase gets its own deadline: a slow client holding the HTTP
	// listener open must not eat the job drain's budget.
	hctx, hcancel := context.WithTimeout(context.Background(), *drain)
	if err := hs.Shutdown(hctx); err != nil {
		fmt.Fprintf(os.Stderr, "lowcontendd: http shutdown: %v\n", err)
	}
	if ds != nil {
		ds.Shutdown(hctx)
	}
	hcancel()
	jctx, jcancel := context.WithTimeout(context.Background(), *drain)
	defer jcancel()
	if err := srv.Shutdown(jctx); err != nil {
		fmt.Fprintf(os.Stderr, "lowcontendd: %v\n", err)
		return 1
	}
	fmt.Println("lowcontendd stopped")
	return 0
}

// defaultAddr resolves the flag default: LOWCONTEND_ADDR wins, then
// PORT (Cloud-Run style, port only), then :8080.
func defaultAddr() string {
	if a := os.Getenv("LOWCONTEND_ADDR"); a != "" {
		return a
	}
	if p := os.Getenv("PORT"); p != "" {
		return ":" + p
	}
	return ":8080"
}
