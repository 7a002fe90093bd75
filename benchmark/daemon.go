package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/serve"
)

// The daemon-mix traffic: an open loop at a fixed rate over two
// keep-alive connections, each sending its share of the schedule from
// its own goroutine at the due time.
const (
	mixRate  = 100 // requests per second
	mixConns = 2
	mixSize  = 1024 // table2 size of the cached and uncached kinds
	// pollInterval spaces an uncached run's status polls. They sleep:
	// a poll that spun out its wait would hold a CPU for the whole run
	// and slow the simulation it waits for.
	pollInterval = time.Millisecond
	reqTimeout   = 10 * time.Second
	// jobTable is the run table bound; set-up fills it so status
	// listings cost the same from the first request to the last.
	jobTable = 256
	// cacheEntries holds every completion of a run: the daemon's
	// artifact cache is FIFO, and at its default 128 entries the fresh
	// uncached keys would evict the primed key within seconds.
	cacheEntries = 1 << 14
	warmupWindow = 500 * time.Millisecond
)

type kind int

const (
	cached kind = iota
	uncached
	status
)

var kindNames = [...]string{"cached", "uncached", "status"}

// mixBlock is one block of the schedule, shuffled per block: cached :
// uncached : status = 6 : 2 : 2.
var mixBlock = []kind{cached, cached, cached, cached, cached, cached, uncached, uncached, status, status}

type daemonMix struct {
	seed    uint64
	srv     *serve.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
	seedMu  sync.Mutex
	seeds   splitmix64 // fresh seeds for uncached runs
	primed  json.RawMessage
	prime   uint64
	windows int

	table2 spec.Experiment
	pool   *core.SessionPool // local reference renders
}

// request is one scheduled request and what it observed.
type request struct {
	kind  kind
	seed  uint64 // uncached only
	rid   string
	due   time.Time
	sent  time.Time
	done  time.Time
	err   error
	jobID string
	polls int
	// client-side phase durations
	submit, artifact time.Duration
	text             string // uncached artifact
	tl               serve.Timeline
	stats            machine.Stats // charged stats of the verified uncached run
}

func setupDaemonMix(seed uint64) (instance, error) {
	table2, ok := exp.Find("table2")
	if !ok {
		return nil, errors.New("experiment table2 is not in the registry")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback listener: %w", err)
	}
	d := &daemonMix{
		seed:   seed,
		srv:    serve.New(serve.Config{MaxJobs: jobTable, CacheEntries: cacheEntries}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		seeds:  splitmix64(seed),
		table2: table2,
		pool:   core.NewSessionPool(),
	}
	d.hs = &http.Server{Handler: d.srv.Handler(), ReadHeaderTimeout: reqTimeout}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // ErrServerClosed after Shutdown; any other failure fails the requests
	}()
	for range mixConns {
		d.clients = append(d.clients, &http.Client{
			Timeout:   reqTimeout,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	if err := d.fill(); err != nil {
		d.close()
		return nil, err
	}
	if w := d.measure(warmupWindow, nil); w.failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %s", w.failures[0])
	}
	return d, nil
}

// fill primes the cached key and fills the job table with finished
// uncached runs.
func (d *daemonMix) fill() error {
	d.prime = d.seeds.next()
	r := &request{kind: uncached, seed: d.prime, rid: "setup-prime"}
	if d.runUncached(d.clients[0], r); r.err != nil {
		return fmt.Errorf("priming: %w", r.err)
	}
	body, err := d.call(d.clients[0], http.MethodGet, "/v1/runs/"+r.jobID, nil, r.rid)
	if err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	var st struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &st); err != nil || len(st.Result) == 0 {
		return fmt.Errorf("priming: status without a result: %v", err)
	}
	d.primed = st.Result

	var wg sync.WaitGroup
	errs := make([]error, mixConns)
	for c := range mixConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < jobTable; i += mixConns {
				r := &request{kind: uncached, seed: d.freshSeed(), rid: fmt.Sprintf("setup-fill-%d", i)}
				if d.runUncached(d.clients[c], r); r.err != nil {
					errs[c] = fmt.Errorf("filling the job table: %w", r.err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// freshSeed returns a seed no earlier uncached run of this instance
// used (splitmix64 is a bijection of its counter, so the stream never
// repeats within a run).
func (d *daemonMix) freshSeed() uint64 {
	d.seedMu.Lock()
	defer d.seedMu.Unlock()
	return d.seeds.next()
}

func (d *daemonMix) charged() string {
	return fmt.Sprintf("primed key table2 n=%d seed=%d; uncached runs use fresh seeds", mixSize, d.prime)
}

func (d *daemonMix) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Shutdown(ctx)
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
	d.pool.Close()
}

// call sends one request and reads the whole response; a non-2xx
// status is an error.
func (d *daemonMix) call(c *http.Client, method, path string, body []byte, rid string) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-ID", rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

func runBody(seed uint64) []byte {
	return fmt.Appendf(nil, `{"experiment":"table2","sizes":[%d],"seed":%d}`, mixSize, seed)
}

// runCached re-POSTs the primed key; the response must be a cache hit
// carrying the primed result bytes.
func (d *daemonMix) runCached(c *http.Client, r *request) {
	body, err := d.call(c, http.MethodPost, "/v1/runs", runBody(d.prime), r.rid)
	if err != nil {
		r.err = err
		return
	}
	var st struct {
		State    string          `json:"state"`
		CacheHit bool            `json:"cache_hit"`
		Result   json.RawMessage `json:"result"`
	}
	switch err := json.Unmarshal(body, &st); {
	case err != nil:
		r.err = fmt.Errorf("cached submit: %w", err)
	case !st.CacheHit || st.State != "done":
		r.err = fmt.Errorf("cached submit: state %q, cache_hit %v", st.State, st.CacheHit)
	case !bytes.Equal(st.Result, d.primed):
		r.err = errors.New("cached submit: result differs from the primed bytes")
	}
}

// runUncached POSTs a fresh seed, polls the run until it finishes and
// fetches its artifact, which is verified after the window.
func (d *daemonMix) runUncached(c *http.Client, r *request) {
	t0 := time.Now()
	body, err := d.call(c, http.MethodPost, "/v1/runs", runBody(r.seed), r.rid)
	r.submit = time.Since(t0)
	if err != nil {
		r.err = err
		return
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.ID == "" {
		r.err = fmt.Errorf("uncached submit: no job id: %v", err)
		return
	}
	r.jobID = st.ID
	deadline := t0.Add(reqTimeout)
	for st.State != "done" {
		if st.State == "failed" {
			r.err = fmt.Errorf("run %s failed: %s", r.jobID, st.Error)
			return
		}
		if time.Now().After(deadline) {
			r.err = fmt.Errorf("run %s still %s after %v", r.jobID, st.State, reqTimeout)
			return
		}
		time.Sleep(pollInterval)
		body, err := d.call(c, http.MethodGet, "/v1/runs/"+r.jobID, nil, r.rid)
		r.polls++
		if err != nil {
			r.err = err
			return
		}
		if err := json.Unmarshal(body, &st); err != nil {
			r.err = fmt.Errorf("polling %s: %w", r.jobID, err)
			return
		}
	}
	t1 := time.Now()
	body, err = d.call(c, http.MethodGet, "/v1/runs/"+r.jobID+"/artifact", nil, r.rid)
	r.artifact = time.Since(t1)
	if err != nil {
		r.err = err
		return
	}
	r.text = string(body)
}

// runStatus lists finished runs; the listing must be well formed and
// non-empty (set-up filled the table).
func (d *daemonMix) runStatus(c *http.Client, r *request) {
	body, err := d.call(c, http.MethodGet, "/v1/runs?state=done", nil, r.rid)
	if err != nil {
		r.err = err
		return
	}
	var st struct {
		Count int               `json:"count"`
		Runs  []json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		r.err = fmt.Errorf("status listing: %w", err)
	} else if st.Count == 0 || st.Count != len(st.Runs) {
		r.err = fmt.Errorf("status listing: count %d with %d runs", st.Count, len(st.Runs))
	}
}

// waitUntil returns at t. It sleeps until a millisecond before t and
// yields the rest: a sleeping Go process wakes at millisecond
// granularity, which would add up to 1 ms of generator lag to cached
// requests that take under half a millisecond.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// schedule lays out one window's requests: kinds shuffled per block of
// ten from the seed, due times at fixed spacing.
func (d *daemonMix) schedule(dur time.Duration) []request {
	d.windows++
	rng := rand.New(rand.NewPCG(d.seed, uint64(d.windows)))
	n := int(dur.Seconds() * mixRate)
	reqs := make([]request, n)
	block := make([]kind, len(mixBlock))
	for i := range reqs {
		if i%len(block) == 0 {
			copy(block, mixBlock)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := &reqs[i]
		r.kind = block[i%len(block)]
		r.rid = fmt.Sprintf("bench-%d-%d-%d", d.seed, d.windows, i)
		if r.kind == uncached {
			r.seed = d.freshSeed()
		}
	}
	return reqs
}

func (d *daemonMix) measure(dur time.Duration, tr *tracer) window {
	reqs := d.schedule(dur)
	var before map[string]int64
	var scrapeErr error
	if tr != nil {
		before, scrapeErr = d.metrics()
	}
	t0 := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := range mixConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs); i += mixConns {
				r := &reqs[i]
				r.due = t0.Add(time.Duration(i) * time.Second / mixRate)
				waitUntil(r.due)
				r.sent = time.Now()
				switch r.kind {
				case cached:
					d.runCached(d.clients[c], r)
				case uncached:
					d.runUncached(d.clients[c], r)
				case status:
					d.runStatus(d.clients[c], r)
				}
				r.done = time.Now()
				// Fetched now, outside the timed request, because the
				// job table evicts finished runs as later ones arrive.
				if r.kind == uncached && r.err == nil {
					r.err = d.timeline(d.clients[c], r)
				}
			}
		}()
	}
	wg.Wait()
	w, byKind := d.verify(reqs)
	if tr != nil {
		after, err := d.metrics()
		if err = errors.Join(scrapeErr, err); err != nil {
			w.fail(err)
		}
		d.traceWindow(tr, reqs, byKind, before, after, t0, &w)
	}
	return w
}

// timeline fetches the server's timeline of a finished uncached run;
// it must carry the request's id.
func (d *daemonMix) timeline(c *http.Client, r *request) error {
	body, err := d.call(c, http.MethodGet, "/v1/runs/"+r.jobID+"/timeline", nil, r.rid)
	if err == nil {
		err = json.Unmarshal(body, &r.tl)
	}
	if err != nil {
		return fmt.Errorf("timeline of %s: %w", r.jobID, err)
	}
	if tm := r.tl.Timing; tm.Started == nil || tm.Finished == nil || r.tl.Core.RequestID != r.rid {
		return fmt.Errorf("timeline of %s: unfinished, or request id %q", r.jobID, r.tl.Core.RequestID)
	}
	return nil
}

// verify checks each uncached artifact against a local spec.Runner
// render of the same experiment, size and seed, and collects the
// latencies: every request is timed from its due time. The window's
// op latencies are the cached kind's, the mix's majority: a median
// over all kinds would fall where the fast cached requests meet the
// slow uncached and status ones, and swing between them. The
// uncached kind reaches ns_per_pram_op instead, through the
// simulation time its timeline reports: its client latency is a whole
// number of poll cycles and includes waits behind the other kinds, so
// its median moved by a quarter from run to run.
func (d *daemonMix) verify(reqs []request) (window, [][]float64) {
	var w window
	byKind := make([][]float64, len(kindNames))
	runner := &spec.Runner{Parallel: 1, Pool: d.pool}
	for i := range reqs {
		r := &reqs[i]
		w.attempted++
		if r.err == nil && r.kind == uncached {
			res := runner.Run(d.table2, []int{mixSize}, r.seed)
			if err := res.FirstErr(); err != nil {
				r.err = fmt.Errorf("local reference for seed %d: %w", r.seed, err)
			} else if d.table2.Render(res)+"\n" != r.text {
				r.err = fmt.Errorf("run %s (seed %d): artifact differs from the local render", r.jobID, r.seed)
			} else {
				r.stats = chargedStats(res)
				var sim float64
				for _, c := range r.tl.Timing.Cells {
					sim += c.SimulateSeconds
				}
				w.nsPerOp = append(w.nsPerOp, sim*1e9/float64(r.stats.Ops))
			}
		}
		if r.err != nil {
			w.fail(fmt.Errorf("%s request %s: %w", kindNames[r.kind], r.rid, r.err))
			continue
		}
		lat := r.done.Sub(r.due).Seconds()
		byKind[r.kind] = append(byKind[r.kind], lat)
		if r.kind == cached {
			w.lat = append(w.lat, lat)
		}
	}
	var b strings.Builder
	var charged machine.Stats
	for i := range reqs {
		charged = charged.Add(reqs[i].stats)
	}
	fmt.Fprintf(&b, "  uncached runs charged in total: pram_ops=%d steps=%d time_units=%d\n",
		charged.Ops, charged.Steps, charged.Time)
	for k, xs := range byKind {
		fmt.Fprintf(&b, "  %-9s n=%-5d p50=%.3f ms p90=%.3f ms p99=%.3f ms\n", kindNames[k], len(xs),
			quantile(xs, 0.5)*1e3, quantile(xs, 0.9)*1e3, quantile(xs, 0.99)*1e3)
	}
	w.detail = b.String()
	return w, byKind
}

// metrics scrapes the daemon's flat JSON counters.
func (d *daemonMix) metrics() (map[string]int64, error) {
	body, err := d.call(d.clients[0], http.MethodGet, "/metrics", nil, "bench-metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return out, nil
}

// traceWindow records the client-side spans of every request (request
// → submit → poll → artifact, X-Request-ID as the trace id), joins each
// uncached run's server timeline under its request, and fills the
// per-layer metrics.
func (d *daemonMix) traceWindow(tr *tracer, reqs []request, byKind [][]float64, before, after map[string]int64, t0 time.Time, w *window) {
	m := make(map[string]float64)
	w.layer = m
	var (
		lags, arts, polls              []float64
		cachedSubmits, uncachedSubmits []float64
		queue, render, total, simulate []float64
		exec                           machine.ExecStats
		acquire, cellWall              time.Duration
		cells                          int
		groups                         = make(map[string]time.Duration)
		jobs                           float64
		stats                          machine.Stats
		last                           time.Time
		completed                      int
	)
	for i := range reqs {
		r := &reqs[i]
		lags = append(lags, r.sent.Sub(r.due).Seconds())
		if r.err != nil {
			continue
		}
		completed++
		if r.done.After(last) {
			last = r.done
		}
		reqID := tr.add(0, "request."+kindNames[r.kind], r.rid, r.due, r.done)
		switch r.kind {
		case cached:
			tr.add(reqID, "serve.submit", r.rid, r.sent, r.done)
			cachedSubmits = append(cachedSubmits, r.done.Sub(r.sent).Seconds())
		case status:
			tr.add(reqID, "serve.list", r.rid, r.sent, r.done)
		case uncached:
			pollStart := r.sent.Add(r.submit)
			artStart := r.done.Add(-r.artifact)
			tr.add(reqID, "serve.submit", r.rid, r.sent, pollStart)
			tr.add(reqID, "serve.poll", r.rid, pollStart, artStart)
			tr.add(reqID, "serve.artifact", r.rid, artStart, r.done)
			uncachedSubmits = append(uncachedSubmits, r.submit.Seconds())
			arts = append(arts, r.artifact.Seconds())
			polls = append(polls, float64(r.polls))

			tl := r.tl
			jobs++
			stats = stats.Add(r.stats)
			tm := tl.Timing
			jobID := tr.add(reqID, "server.job", r.rid, tm.Created, *tm.Finished)
			tr.add(jobID, "server.queue", r.rid, tm.Created, *tm.Started)
			at := *tm.Started
			var sim float64
			for k, c := range tm.Cells {
				cw := time.Duration(c.WallSeconds * 1e9)
				ca := time.Duration(c.AcquireSeconds * 1e9)
				cellID := tr.add(jobID, "server.cell", r.rid, at, at.Add(cw))
				tr.add(cellID, "server.acquire", r.rid, at, at.Add(ca))
				at = at.Add(cw)
				acquire += ca
				cellWall += cw
				cells++
				sim += c.SimulateSeconds
				groups[cellMetric(tl.Core.Experiment, c.Cell)] += cw
				if k < len(tl.Core.Cells) {
					exec = exec.Add(tl.Core.Cells[k].Exec)
				}
			}
			rd := time.Duration(tm.RenderSeconds * 1e9)
			tr.add(jobID, "server.render", r.rid, tm.Finished.Add(-rd), *tm.Finished)
			queue = append(queue, tm.QueueWaitSeconds*1e3)
			render = append(render, tm.RenderSeconds*1e3)
			total = append(total, tm.TotalSeconds*1e3)
			simulate = append(simulate, sim*1e3)
		}
	}
	if jobs > 0 {
		chargedLayer(m, machine.Stats{Ops: stats.Ops / int64(jobs), Steps: stats.Steps / int64(jobs),
			Time: stats.Time / int64(jobs), MaxContention: stats.MaxContention})
		execLayer(m, exec, jobs)
		m["core.acquire_s"] = acquire.Seconds() / jobs
		m["spec.cells"] = float64(cells) / jobs
		m["spec.cell_wall_s"] = cellWall.Seconds() / jobs
		for k, v := range groups {
			m[k] = v.Seconds() / jobs
		}
		poolLayer(m,
			core.PoolStats{Acquires: before["pool_acquires"], Reuses: before["pool_reuses"], News: before["pool_news"]},
			core.PoolStats{Acquires: after["pool_acquires"], Reuses: after["pool_reuses"], News: after["pool_news"]},
			jobs)
	}
	m["serve.submit_ms.cached"] = quantile(cachedSubmits, 0.5) * 1e3
	m["serve.submit_ms.uncached"] = quantile(uncachedSubmits, 0.5) * 1e3
	m["serve.poll_count"] = mean(polls)
	m["serve.artifact_ms"] = quantile(arts, 0.5) * 1e3
	m["serve.queue_wait_ms"] = quantile(queue, 0.5)
	m["serve.render_ms"] = quantile(render, 0.5)
	m["serve.job_total_ms"] = quantile(total, 0.5)
	m["serve.cell_simulate_ms"] = quantile(simulate, 0.5)
	hits := after["cache_hits"] - before["cache_hits"]
	subs := after["jobs_submitted"] - before["jobs_submitted"]
	m["serve.cache_hits"] = float64(hits)
	m["serve.cache_misses"] = float64(after["cache_misses"] - before["cache_misses"])
	m["serve.rejected"] = float64(after["jobs_rejected"] - before["jobs_rejected"])
	if subs > 0 {
		m["serve.cache_hit_ratio"] = float64(hits) / float64(subs)
	}

	m["loadgen.offered_rps"] = mixRate
	if span := last.Sub(t0).Seconds(); span > 0 {
		m["loadgen.achieved_rps"] = float64(completed) / span
	}
	m["loadgen.lag_p50_ms"] = quantile(lags, 0.5) * 1e3
	m["loadgen.lag_p99_ms"] = quantile(lags, 0.99) * 1e3
	for k, xs := range byKind {
		name := "loadgen." + kindNames[k]
		m[name+"_p50_ms"] = quantile(xs, 0.5) * 1e3
		m[name+"_p90_ms"] = quantile(xs, 0.9) * 1e3
		m[name+"_p99_ms"] = quantile(xs, 0.99) * 1e3
	}
}
