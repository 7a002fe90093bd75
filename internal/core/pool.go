package core

import (
	"cmp"
	"slices"
	"sync"

	"lowcontend/internal/machine"
)

// SessionPool recycles Sessions across independent runs so that callers
// executing many short-lived measurements (experiment runners, servers)
// do not churn machine allocations. Idle sessions are parked per model,
// and the memory words a caller requests are a minimum capacity:
// Acquire hands out the model's idle session with the smallest capacity
// that fits, Reset and Reseeded, so its behavior and charged stats are
// bit-identical to a fresh NewSession(model, memWords, WithSeed(seed))
// (no algorithm reads capacity, and Reset costs O(dirty words)). When
// the model has idle sessions but none large enough, Acquire grows the
// largest to exactly the requested size (a fresh array: the old one
// held only zeros after Reset), keeping its step buffers; a session is
// constructed only when the model has none idle, so a model never
// parks more sessions than its peak concurrent leases.
//
// A SessionPool is safe for concurrent use. The Sessions it hands out
// are not: each acquired session belongs to one goroutine until it is
// Released.
type SessionPool struct {
	// Workers is ignored. Every step runs on the goroutine that issues
	// it, so runners get host parallelism by running sessions
	// concurrently. The field stays because the benchmark module sets it.
	Workers int

	mu     sync.Mutex
	idle   map[machine.Model][]*Session // per model, ascending by capacity
	leased map[*Session]struct{}        // sessions out on lease, for live-stat scrapes
	st     PoolStats
	ex     machine.ExecStats // engine counters harvested from released leases
}

// PoolStats counts pool traffic: Acquires = Reuses + News. Reuses are
// pool hits (an idle session of the model was recycled, grown to the
// request if none was large enough), News are misses (the model had no
// idle session). The JSON form is what
// cmd/lowcontend -json publishes under "pool"; the lowcontendd
// /metrics endpoint flattens the same counters into its own pool_* keys
// (internal/serve/metrics.go). The pooled machines' engine counters are
// not pool traffic: StatsLive reports them as one machine.ExecStats.
type PoolStats struct {
	Acquires int64 `json:"acquires"` // total Acquire calls
	Reuses   int64 `json:"reuses"`   // acquires served by an idle session (hits)
	News     int64 `json:"news"`     // acquires that constructed a session (misses)
}

// NewSessionPool constructs an empty pool. The zero value is also ready
// to use; the constructor exists for symmetry with the rest of the API.
func NewSessionPool() *SessionPool {
	return &SessionPool{}
}

// Acquire returns a session for the given model, minimum memory
// capacity, and seed: the model's smallest idle session that fits, else
// its largest idle session grown to memWords, else a fresh one. The
// caller owns the session until Release.
func (p *SessionPool) Acquire(model machine.Model, memWords int, seed uint64) *Session {
	p.mu.Lock()
	p.st.Acquires++
	if p.leased == nil {
		p.leased = make(map[*Session]struct{})
	}
	if ss := p.idle[model]; len(ss) > 0 {
		i, _ := slices.BinarySearchFunc(ss, memWords, sessionCap)
		i = min(i, len(ss)-1) // none fits: the largest, grown below
		s := ss[i]
		p.idle[model] = slices.Delete(ss, i, i+1)
		p.st.Reuses++
		p.leased[s] = struct{}{}
		p.mu.Unlock()
		s.m.Reserve(memWords)
		s.Reseed(seed)
		return s
	}
	p.st.News++
	p.mu.Unlock()
	s := NewSession(model, memWords, machine.WithSeed(seed))
	p.mu.Lock()
	p.leased[s] = struct{}{}
	p.mu.Unlock()
	return s
}

func sessionCap(s *Session, memWords int) int { return cmp.Compare(s.m.MemWords(), memWords) }

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

// Release resets s and parks it under its model, at the capacity it has
// grown to, for reuse. The caller must not touch s (or any DeviceSlice
// bound to it) afterwards. The session's engine counters
// (machine.ExecStats) are harvested before the Reset clears them, so the
// pool accumulates them across leases.
func (p *SessionPool) Release(s *Session) {
	ex := s.ExecStats()
	// Fold the harvest and drop the lease in one critical section, so a
	// concurrent StatsLive scrape never sees the session both in the
	// leased set and already folded into the harvested totals.
	p.mu.Lock()
	p.ex = p.ex.Add(ex)
	delete(p.leased, s)
	p.mu.Unlock()
	s.Reset()
	model := s.Model()
	p.mu.Lock()
	if p.idle == nil {
		p.idle = make(map[machine.Model][]*Session)
	}
	ss := p.idle[model]
	i, _ := slices.BinarySearchFunc(ss, s.m.MemWords(), sessionCap)
	p.idle[model] = slices.Insert(ss, i, s)
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
// step and bulk traffic immediately instead of appearing all at once when
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
// summed over all models. Servers expose it as a gauge.
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
