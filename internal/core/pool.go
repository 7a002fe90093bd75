package core

import (
	"sync"

	"lowcontend/internal/machine"
)

// SessionPool recycles Sessions across independent runs so that callers
// executing many short-lived measurements (experiment runners, servers)
// do not churn machine allocations. Idle sessions are keyed by
// (model, requested memory words): Acquire returns a pooled session of
// the same shape when one is idle — Reset and Reseeded, so its behavior
// and charged stats are bit-identical to a fresh
// NewSession(model, memWords, WithSeed(seed)) — and constructs a new one
// otherwise.
//
// A SessionPool is safe for concurrent use. The Sessions it hands out
// are not: each acquired session belongs to one goroutine until it is
// Released.
type SessionPool struct {
	// Workers, when positive, bounds the host goroutines each pooled
	// machine uses per step (machine.WithWorkers). Runners that execute
	// many sessions concurrently set it low — typically 1 — so that
	// session-level parallelism is not multiplied by step-level
	// parallelism. Charged stats are independent of the worker count.
	// Workers applies only to sessions the pool constructs: an idle
	// session keeps the width it was built with, so set Workers before
	// the first Acquire.
	Workers int

	mu     sync.Mutex
	idle   map[poolKey][]*Session
	leased map[*Session]struct{} // sessions out on lease, for live-stat scrapes
	st     PoolStats
	ex     machine.ExecStats // engine counters harvested from released leases
}

type poolKey struct {
	model    machine.Model
	memWords int
}

// PoolStats counts pool traffic: Acquires = Reuses + News. Reuses are
// pool hits (an idle session of the requested shape was recycled), News
// are misses. The JSON form is what cmd/lowcontend -json publishes
// under "pool"; the lowcontendd /metrics endpoint flattens the same
// counters into its own pool_* keys (internal/serve/metrics.go). The
// pooled machines' engine counters are not pool traffic: StatsLive
// reports them as one machine.ExecStats.
type PoolStats struct {
	Acquires int64 `json:"acquires"` // total Acquire calls
	Reuses   int64 `json:"reuses"`   // acquires satisfied by an idle session (hits)
	News     int64 `json:"news"`     // acquires that constructed a fresh session (misses)
}

// NewSessionPool constructs an empty pool. The zero value is also ready
// to use; the constructor exists for symmetry with the rest of the API.
func NewSessionPool() *SessionPool {
	return &SessionPool{}
}

// Acquire returns a session for the given model, memory capacity, and
// seed — pooled if an idle session of that shape exists, freshly
// constructed otherwise. The caller owns the session until Release.
func (p *SessionPool) Acquire(model machine.Model, memWords int, seed uint64) *Session {
	key := poolKey{model, memWords}
	p.mu.Lock()
	p.st.Acquires++
	if p.idle == nil {
		p.idle = make(map[poolKey][]*Session)
	}
	if p.leased == nil {
		p.leased = make(map[*Session]struct{})
	}
	if ss := p.idle[key]; len(ss) > 0 {
		s := ss[len(ss)-1]
		p.idle[key] = ss[:len(ss)-1]
		p.st.Reuses++
		p.leased[s] = struct{}{}
		p.mu.Unlock()
		s.Reseed(seed)
		return s
	}
	p.st.News++
	p.mu.Unlock()
	opts := []machine.Option{machine.WithSeed(seed)}
	if p.Workers > 0 {
		opts = append(opts, machine.WithWorkers(p.Workers))
	}
	s := NewSession(model, memWords, opts...)
	p.mu.Lock()
	p.leased[s] = struct{}{}
	p.mu.Unlock()
	return s
}

// AcquireProfiled is Acquire returning a session with per-step tracing
// and top-hotK hot-cell attribution enabled. Profiling never changes
// charged stats, and Release disables it again (Reset restores the
// machine's construction-time settings), so profiled and unprofiled
// leases can share one pool freely — the property the experiment runner
// and the daemon rely on to profile individual runs over a shared pool.
func (p *SessionPool) AcquireProfiled(model machine.Model, memWords int, seed uint64, hotK int) *Session {
	s := p.Acquire(model, memWords, seed)
	s.EnableProfiling(hotK)
	return s
}

// Release resets s and returns it to the pool for reuse. The caller must
// not touch s (or any DeviceSlice bound to it) afterwards. The session's
// engine counters (machine.ExecStats) are harvested before the Reset
// clears them, so the pool accumulates them across leases.
func (p *SessionPool) Release(s *Session) {
	ex := s.ExecStats()
	key := poolKey{s.Model(), s.memWords}
	// Fold the harvest and drop the lease in one critical section, so a
	// concurrent StatsLive scrape never sees the session both in the
	// leased set and already folded into the harvested totals.
	p.mu.Lock()
	p.ex = p.ex.Add(ex)
	delete(p.leased, s)
	p.mu.Unlock()
	s.Reset()
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[poolKey][]*Session)
	}
	p.idle[key] = append(p.idle[key], s)
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's traffic counters. StatsLive
// adds the pooled machines' engine counters.
func (p *SessionPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.st
}

// StatsLive returns the pool's traffic counters and the engine counters
// of every pooled machine, including the sessions currently out on
// lease, whose atomic machine counters are read without waiting for
// Release.
// This is the scrape-time view: a run in flight for seconds shows its
// gang/bulk traffic immediately instead of appearing all at once when
// the lease ends. Live values are monotone between scrapes modulo lease
// turnover — a concurrent Release can make one scrape lag (never
// double-count) the session it is folding in.
func (p *SessionPool) StatsLive() (PoolStats, machine.ExecStats) {
	p.mu.Lock()
	st, ex := p.st, p.ex
	leased := make([]*Session, 0, len(p.leased))
	for s := range p.leased {
		leased = append(leased, s)
	}
	p.mu.Unlock()
	for _, s := range leased {
		ex = ex.Add(s.ExecStats())
	}
	return st, ex
}

// Idle returns the number of sessions currently parked in the pool,
// summed over all shapes. Servers expose it as a gauge.
func (p *SessionPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, ss := range p.idle {
		n += len(ss)
	}
	return n
}

// Close releases the backing stores of every idle session and empties
// the pool. The pool remains usable; subsequent Acquires construct fresh
// sessions.
func (p *SessionPool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, ss := range idle {
		for _, s := range ss {
			s.Close()
		}
	}
}
