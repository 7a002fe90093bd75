package core

import (
	"lowcontend/internal/machine"
)

// Session owns one simulated PRAM and is the unit of host↔device
// interaction: it constructs the machine, moves data on and off it
// through DeviceSlice, runs algorithms, and manages the machine's
// memory lifecycle (Reset for cheap reuse across runs, Close to release
// the backing stores). A Session is not safe for concurrent use, same
// as the Machine it wraps. A SessionPool may hand out a session whose
// machine has more capacity than was asked for; no algorithm reads
// capacity, so the run is the same as on a fresh session.
type Session struct {
	m *machine.Machine
}

// NewSession constructs a session around a fresh PRAM with the given
// model and initial memory capacity in words.
func NewSession(model machine.Model, memWords int, opts ...machine.Option) *Session {
	return &Session{m: machine.New(model, memWords, opts...)}
}

// Machine exposes the underlying simulator for callers that drive
// algorithm packages directly (experiment harnesses, tests). Data
// marshalling should still go through DeviceSlice.
func (s *Session) Machine() *machine.Machine { return s.m }

// Model returns the session machine's contention model.
func (s *Session) Model() machine.Model { return s.m.Model() }

// Stats returns the machine's accumulated charged cost.
func (s *Session) Stats() machine.Stats { return s.m.Stats() }

// Err returns the first model violation encountered, or nil.
func (s *Session) Err() error { return s.m.Err() }

// ExecStats snapshots the machine's host-execution telemetry: steps
// settled and bulk descriptor traffic. Safe to call from
// another goroutine while the session is running a program — the
// counters are atomic — which is what lets a metrics scrape observe
// in-flight sessions without waiting for Release.
func (s *Session) ExecStats() machine.ExecStats { return s.m.ExecStats() }

// Reset returns the session to a pristine state — memory zeroed,
// allocations released, stats cleared — while keeping every backing
// array allocated, so a session can be reused across algorithm runs
// without paying allocation again. Zeroing costs O(words written), not
// O(capacity): the machine clears only up to its dirty high-water mark,
// above which every word is already zero (see machine.Machine.Reset).
func (s *Session) Reset() { s.m.Reset() }

// Reseed replaces the machine's base random seed. Combined with Reset it
// makes a reused session replay exactly the run of a fresh session
// constructed WithSeed(seed).
func (s *Session) Reseed(seed uint64) { s.m.Reseed(seed) }

// EnableProfiling turns on per-step tracing with top-hotK hot-cell
// attribution for the session's subsequent steps. Profiling observes a
// run without changing it: charged stats are identical with it on or
// off. Reset (and therefore SessionPool.Release) restores the
// machine's construction-time settings, so a profiled pooled session
// never leaks tracing cost — or a previous run's trace — into its next
// lease.
func (s *Session) EnableProfiling(hotK int) { s.m.EnableProfiling(hotK) }

// DisableProfiling restores the construction-time tracing settings.
func (s *Session) DisableProfiling() { s.m.DisableProfiling() }

// StepTraces returns a copy of the machine's per-step trace (populated
// while profiling or construction-time tracing is enabled).
func (s *Session) StepTraces() []machine.StepTrace { return s.m.StepTraces() }

// Close releases the machine's backing stores (shared memory and step
// buffers; the contention scratch is leased per settlement and is never
// a session's). The session remains usable; the next upload reallocates
// on demand.
func (s *Session) Close() { s.m.Free() }

// DeviceSlice is a handle to a contiguous region of simulated shared
// memory. It is the session API's only marshalling primitive: host data
// enters the machine through Session.Upload and leaves it through
// Download, replacing hand-rolled Alloc/Store/LoadWords sequences.
type DeviceSlice struct {
	m    *machine.Machine
	base int
	n    int
}

// Malloc reserves n zeroed words of device memory.
func (s *Session) Malloc(n int) DeviceSlice {
	return DeviceSlice{m: s.m, base: s.m.Alloc(n), n: n}
}

// Upload copies vals into freshly allocated device memory.
func (s *Session) Upload(vals []Word) DeviceSlice {
	d := s.Malloc(len(vals))
	s.m.Store(d.base, vals)
	return d
}

// UploadInts is Upload for host []int data.
func (s *Session) UploadInts(vals []int) DeviceSlice {
	w := make([]Word, len(vals))
	for i, v := range vals {
		w[i] = Word(v)
	}
	return s.Upload(w)
}

// DeviceAt wraps an already-allocated device region in a DeviceSlice.
// Entry points use it for regions that algorithms return as raw base
// addresses; experiment harnesses driving the algorithm packages
// directly use it to download results without hand-rolling LoadWords.
func (s *Session) DeviceAt(base, n int) DeviceSlice {
	return DeviceSlice{m: s.m, base: base, n: n}
}

// Len returns the number of words in the slice.
func (d DeviceSlice) Len() int { return d.n }

// Base returns the device address of the first word, for handing the
// region to algorithm packages that take raw bases.
func (d DeviceSlice) Base() int { return d.base }

// Download copies the region out of device memory into a fresh host
// slice.
func (d DeviceSlice) Download() []Word {
	return d.m.LoadWords(d.base, d.n)
}

// DownloadInts is Download converting to host []int.
func (d DeviceSlice) DownloadInts() []int {
	w := d.m.LoadWords(d.base, d.n)
	out := make([]int, len(w))
	for i, v := range w {
		out[i] = int(v)
	}
	return out
}

// DownloadInto copies the region into dst, which must have length
// Len().
func (d DeviceSlice) DownloadInto(dst []Word) {
	if len(dst) != d.n {
		panic("core: DownloadInto length mismatch")
	}
	d.m.LoadInto(d.base, dst)
}
