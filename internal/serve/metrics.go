package serve

import (
	rtmetrics "runtime/metrics"
	"sync/atomic"

	"lowcontend/internal/core"
)

// counterSet is the per-queue half of the daemon's counters: one set
// for the run manager, one for the sweep manager, so each queue's
// traffic and occupancy is accounted separately (a saturated sweep
// queue must be visible without being masked by healthy run traffic).
type counterSet struct {
	submitted atomic.Int64 // accepted submissions
	rejected  atomic.Int64 // refused with 503 (queue full / draining)
	queued    atomic.Int64 // gauge: waiting in the queue
	running   atomic.Int64 // gauge: in the running state (includes coalesced waiters)
	done      atomic.Int64 // completed successfully (cache-served resubmissions included)
	failed    atomic.Int64 // finished failed
	coalesced atomic.Int64 // duplicates completed by flight coalescing (no lookup, no simulation)
}

func (c *counterSet) fill(into map[string]int64, prefix string) {
	into[prefix+"_submitted"] = c.submitted.Load()
	into[prefix+"_rejected"] = c.rejected.Load()
	into[prefix+"_queued"] = c.queued.Load()
	into[prefix+"_running"] = c.running.Load()
	into[prefix+"_done"] = c.done.Load()
	into[prefix+"_failed"] = c.failed.Load()
	into[prefix+"_coalesced"] = c.coalesced.Load()
}

// metrics is the daemon's expvar-style counter set: per-queue
// counterSets for runs and sweeps plus the shared artifact-cache and
// in-flight-cell counters (both queues drain into one cache and one
// session pool). It is rendered as the flat JSON object served by
// GET /metrics (keys sorted by encoding/json's map ordering, so the
// document is stable for scrapers and tests).
type metrics struct {
	runs   counterSet
	sweeps counterSet

	cacheHits     atomic.Int64 // submissions served from the artifact cache
	cacheMisses   atomic.Int64 // submissions that had to simulate
	cellsInflight atomic.Int64 // gauge: experiment cells executing now
	cellsRun      atomic.Int64 // cells started since boot

	defsCreated atomic.Int64 // definitions newly stored via POST /v1/experiments
	defsDeleted atomic.Int64 // definitions removed via DELETE
}

// snapshot renders the counters, the artifact-cache occupancy, and the
// shared session pool's traffic (hit/miss/idle) as one flat document.
// Run-queue counters keep their historical jobs_* keys; the sweep queue
// reports under sweeps_*. The engine-side counters (step and bulk
// traffic) come from the pool's live view, so sessions still out on
// lease — a sweep minutes into its grid — are counted at scrape time
// rather than appearing all at once on release.
func (m *metrics) snapshot(pool *core.SessionPool, cacheEntries int) map[string]int64 {
	ps, ex := pool.StatsLive()
	out := map[string]int64{
		"cache_hits":     m.cacheHits.Load(),
		"cache_misses":   m.cacheMisses.Load(),
		"cache_entries":  int64(cacheEntries),
		"cells_inflight": m.cellsInflight.Load(),
		"cells_run":      m.cellsRun.Load(),
		"pool_acquires":  ps.Acquires,
		"pool_reuses":    ps.Reuses,
		"pool_news":      ps.News,
		"pool_idle":      int64(pool.Idle()),

		"bulk_descriptors":     ex.BulkDescriptors,
		"expanded_descriptors": ex.BulkExpanded,

		// Steps settled by the pooled machines, live across released
		// and leased sessions alike. The engine has no step-execution
		// gang, so the gang keys always read 0; they stay for scrapers.
		"gang_dispatches":    0,
		"gang_fused_settles": 0,
		"serial_steps":       ex.SerialSteps,
	}
	m.runs.fill(out, "jobs")
	m.sweeps.fill(out, "sweeps")
	return out
}

// procGauges adds process-level gauges from runtime/metrics to the
// /metrics document: goroutine count, live heap bytes, and cumulative
// GC pauses. Sampled at scrape time; every key is always present (a
// sample the runtime can't serve reports zero) so the JSON key set
// stays pinned for scrapers.
func procGauges(into map[string]int64) {
	samples := []rtmetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(samples)
	asInt := func(s rtmetrics.Sample) int64 {
		if s.Value.Kind() == rtmetrics.KindUint64 {
			return int64(s.Value.Uint64())
		}
		return 0
	}
	into["proc_goroutines"] = asInt(samples[0])
	into["proc_heap_objects_bytes"] = asInt(samples[1])
	into["proc_gc_cycles"] = asInt(samples[2])
}
