// Package machine implements an instrumented PRAM simulator supporting the
// contention cost models studied in Gibbons, Matias & Ramachandran,
// "Efficient Low-Contention Parallel Algorithms" (SPAA'94 / JCSS'96).
//
// A Machine executes synchronous steps. In each step every virtual
// processor may read shared-memory cells, perform local computation, and
// write shared-memory cells. Reads observe the memory contents from the
// beginning of the step; writes are buffered and applied at the end of
// the step (Definition 2.2 of the paper). For each step the simulator
// records the maximum per-cell contention kappa (Definition 2.1) and the
// maximum per-processor operation count m, then charges the step cost
// prescribed by the machine's Model (Definition 2.3):
//
//	EREW/CREW:    m   (contention is a model violation)
//	CRCW:         m
//	QRQW:         max(m, kappa_read, kappa_write)
//	CRQW:         max(m, kappa_write)
//	SIMD-QRQW:    max(1, kappa)          (m must be <= 1)
//	FetchAdd:     m                       (CRCW cost)
//
// Algorithm time is the sum of step costs; Ops counts every shared read,
// shared write, and charged local operation, and PTWork is the
// processor-time product (sum over steps of p * cost).
//
// Each model's cost and legality rules are Model methods in model.go,
// derived from its predicates; the step loop in step.go is
// model-agnostic.
//
// Every step runs on the goroutine that issues it: the processor bodies
// execute in ascending index order against one buffered worker, and
// settlement counts contention with per-cell counters leased from a
// package-level free list for the duration of one settlement and reset
// via touched-address lists, so that cost is proportional to the
// operations actually performed. A counter is one byte per cell and
// access kind (2 B per covered word); a count above 255 keeps its
// excess in the lease's overflow table, so every count stays exact.
// Host parallelism lives one level up, in runners that execute
// independent machines concurrently; the charged stats never depend on
// it.
package machine

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Word is the shared-memory cell type. The PRAM convention of O(lg n)-bit
// words is represented with 64-bit integers.
type Word = int64

// Machine is an instrumented PRAM. It is not safe for concurrent use by
// multiple goroutines: one step executes at a time, on the goroutine
// that issues it.
type Machine struct {
	model Model
	seed  uint64

	// mem is the machine's only per-word state. The per-cell contention
	// counters live in a package-level free list (step.go) and are
	// leased only while a step settles.
	mem  []Word
	brk  int // bump-allocation watermark
	peak int // highest brk since the last Reset or Free

	// dirty is the memory high-water mark: every word of mem at or above
	// it is zero. Every write path raises it, so Reset clears only
	// mem[:dirty] and costs the words a run wrote, not the capacity.
	dirty int

	// wk holds the step buffers, taken from the package-level worker
	// pool on the first step and returned by Free.
	wk *worker

	stepIndex uint64
	stats     Stats
	trace     []StepTrace
	tracing   bool
	hotK      int    // per-step hot-cell top-K (0 = no hot-cell attribution)
	clock     *int64 // shared step clock stamping trace ticks (nil: none)
	err       error  // sticky first model violation

	// traceOpt/hotKOpt remember the construction-time tracing settings;
	// Reset restores them, so a pooled machine whose profiling was
	// enabled at runtime (EnableProfiling) never leaks tracing cost or a
	// previous run's trace into its next lease.
	traceOpt bool
	hotKOpt  int
	hotMerge []HotCell // per-step hot-cell merge scratch, reused across steps

	// Bulk access layer state (bulk.go): the machine-owned step builder
	// (with its settlement scratch), the descriptor hit counters, and the
	// test hook that forces every descriptor through element expansion.
	bulkB        Bulk
	bulkDescs    atomic.Int64
	bulkExpanded atomic.Int64
	noBulkFast   bool

	// host is the host int arena (HostInts), and hostMarks the break
	// and arena length at each carve, so Release frees what was carved
	// at or above its mark. Reset empties both and keeps their capacity.
	host      []int
	hostMarks []hostMark

	// serialSteps counts settled steps. Atomic so observers (a metrics
	// scrape over a leased session) may read it while a step is in
	// flight; the owning goroutine is still the only writer.
	serialSteps atomic.Int64
}

// Option configures a Machine at construction time.
type Option func(*Machine)

// WithSeed fixes the seed from which all per-processor random streams are
// derived. The default seed is 1.
func WithSeed(seed uint64) Option { return func(m *Machine) { m.seed = seed } }

// WithTrace enables per-step tracing (StepTraces accumulates one entry
// per executed step).
func WithTrace() Option {
	return func(m *Machine) {
		m.tracing = true
		m.traceOpt = true
	}
}

// maxHotCells bounds the per-step hot-cell top-K: candidate insertion
// scans a K-sized buffer per touched address, so K must stay small for
// profiling cost to remain proportional to the operations performed.
const maxHotCells = 64

// WithHotCells enables per-step tracing with hot-cell attribution: each
// StepTrace additionally records the step's k most-contended addresses
// (clamped to an internal bound). Implies WithTrace.
func WithHotCells(k int) Option {
	return func(m *Machine) {
		m.tracing = true
		m.traceOpt = true
		m.hotK = clampHotK(k)
		m.hotKOpt = m.hotK
	}
}

func clampHotK(k int) int {
	if k < 0 {
		return 0
	}
	return min(k, maxHotCells)
}

// EnableProfiling turns on per-step tracing with top-k hot-cell
// attribution (k <= 0 traces without hot cells) for subsequent steps.
// Unlike the construction options this is a runtime toggle: Reset — and
// therefore core.SessionPool.Release — restores the construction-time
// settings, so a pooled machine profiled for one run hands the next
// lease an unprofiled machine with an empty trace.
func (m *Machine) EnableProfiling(k int) {
	m.tracing = true
	m.hotK = clampHotK(k)
}

// DisableProfiling restores the construction-time tracing settings
// and detaches the step clock.
func (m *Machine) DisableProfiling() {
	m.tracing = m.traceOpt
	m.hotK = m.hotKOpt
	m.clock = nil
}

// SetStepClock makes every subsequently traced step advance *clock and
// record its new value as the step's Tick. Machines that share a clock
// and run on one goroutine, one step at a time, thereby number their
// steps in the order they executed, so their traces merge into one
// run. nil detaches the clock; Reset and DisableProfiling detach it too.
func (m *Machine) SetStepClock(clock *int64) { m.clock = clock }

// record appends one step's trace entry, stamped from the step clock.
func (m *Machine) record(t StepTrace) {
	if m.clock != nil {
		*m.clock++
		t.Tick = *m.clock
	}
	m.trace = append(m.trace, t)
}

// Profiling reports whether per-step tracing is currently enabled and
// the hot-cell top-K in effect.
func (m *Machine) Profiling() (tracing bool, hotK int) { return m.tracing, m.hotK }

// New constructs a machine with the given model and initial shared-memory
// capacity in words. Memory grows automatically on Alloc.
func New(model Model, memWords int, opts ...Option) *Machine {
	if memWords < 0 {
		panic("machine: negative memory size")
	}
	if int(model) >= len(modelNames) {
		panic(fmt.Sprintf("machine: unknown model %d", uint8(model)))
	}
	m := &Machine{model: model, seed: 1}
	for _, o := range opts {
		o(m)
	}
	m.growTo(memWords)
	return m
}

// Model returns the machine's contention model. Algorithm code may
// branch on it only through HasUnitScan: the step rules (StepCost and
// Violation) are the engine's, and a run that no rule stops executes
// the same steps under every model that agrees on HasUnitScan, which is
// what lets one traced run be charged under all of them.
func (m *Machine) Model() Model { return m.model }

// Seed returns the machine's base random seed.
func (m *Machine) Seed() uint64 { return m.seed }

// Reseed replaces the base seed from which per-processor random streams
// are derived. Streams are derived per step (from seed, step index, and
// processor id), so after Reset+Reseed a reused machine replays exactly
// the randomness of a fresh machine constructed WithSeed(seed): pooled
// machines are bit-identical to newly allocated ones.
func (m *Machine) Reseed(seed uint64) { m.seed = seed }

// Err returns the first model violation encountered, or nil.
func (m *Machine) Err() error { return m.err }

// Stats returns a copy of the accumulated statistics.
func (m *Machine) Stats() Stats { return m.stats }

// StepTraces returns a copy of the per-step trace (only populated when
// tracing is enabled, via WithTrace/WithHotCells or EnableProfiling).
// The copy stays valid across ResetStats/Reset/Free; the HotCells
// slices inside it are shared with the recorded entries but immutable.
func (m *Machine) StepTraces() []StepTrace { return slices.Clone(m.trace) }

// MemWords returns the current shared-memory capacity.
func (m *Machine) MemWords() int { return len(m.mem) }

// Allocated returns the bump-allocation watermark.
func (m *Machine) Allocated() int { return m.brk }

// PeakAllocated returns the highest bump-allocation watermark since the
// last Reset or Free: the words the run needed at once. Like the
// charged stats it is a function of the program alone, so a session
// requested with at least this capacity never grows.
func (m *Machine) PeakAllocated() int { return m.peak }

// Reserve grows shared memory to exactly words when it holds fewer,
// keeping its contents; it never shrinks. A pooled machine reserves the
// capacity a lease asks for, so it does not grow during the run.
func (m *Machine) Reserve(words int) {
	if words <= len(m.mem) {
		return
	}
	// Words at or above the dirty mark are zero, as is the new array.
	mem := make([]Word, words)
	copy(mem, m.mem[:m.dirty])
	m.mem = mem
}

// growTo makes room for n words during a run, at least doubling the
// capacity, so that a run allocating past its capacity grows O(lg n)
// times.
func (m *Machine) growTo(n int) {
	if n > len(m.mem) {
		m.Reserve(max(n, 2*len(m.mem)))
	}
}

// Alloc reserves n zeroed words of shared memory and returns the base
// address of the region.
func (m *Machine) Alloc(n int) int {
	if n < 0 {
		panic("machine: Alloc with negative size")
	}
	base := m.brk
	m.brk += n
	m.peak = max(m.peak, m.brk)
	m.growTo(m.brk)
	return base
}

// hostMark records one HostInts carve: the allocation break it was
// carved at and the arena length before it.
type hostMark struct{ brk, off int }

// HostInts returns n ints from the machine's host arena, for host-side
// lists that an algorithm keeps across the steps of one run (the dart
// rounds' item and target lists). Contents are unspecified. A slice
// carved at allocation break b (the value Mark would return) stays valid
// until Release(mark) with mark <= b, Reset or Free. Reset keeps the
// arena's capacity, so a reused machine that repeats a run carves
// without allocating.
func (m *Machine) HostInts(n int) []int {
	if n < 0 {
		panic("machine: HostInts with negative size")
	}
	m.hostMarks = append(m.hostMarks, hostMark{m.brk, len(m.host)})
	return arena(&m.host, n)
}

// Mark returns the current allocation watermark, for use with Release.
func (m *Machine) Mark() int { return m.brk }

// Release rolls the bump allocator back to a watermark previously
// obtained from Mark, zeroing the released region so that subsequent
// Alloc calls return zeroed memory. Words at or above the dirty mark
// are zero already, so it clears only those below it; when no word at
// or above brk was written, everything from mark up is then zero, and
// the dirty mark drops to mark so that Reset does not clear them again.
func (m *Machine) Release(mark int) {
	if mark < 0 || mark > m.brk {
		panic("machine: Release with invalid mark")
	}
	if mark < m.dirty {
		clear(m.mem[mark:min(m.brk, m.dirty)])
	}
	if m.dirty <= m.brk {
		m.dirty = min(m.dirty, mark)
	}
	m.brk = mark
	for k := len(m.hostMarks) - 1; k >= 0 && m.hostMarks[k].brk >= mark; k-- {
		m.host = m.host[:m.hostMarks[k].off]
		m.hostMarks = m.hostMarks[:k]
	}
}

// Word returns the contents of a cell. Host-side access: it is not
// charged to the simulated algorithm; use it for setup and verification.
func (m *Machine) Word(addr int) Word {
	m.checkAddr(addr)
	return m.mem[addr]
}

// SetWord stores v into a cell. Host-side access, uncharged.
func (m *Machine) SetWord(addr int, v Word) {
	m.checkAddr(addr)
	m.mem[addr] = v
	m.dirty = max(m.dirty, addr+1)
}

// Store copies vals into shared memory starting at base. Host-side
// access, uncharged.
func (m *Machine) Store(base int, vals []Word) {
	if base < 0 || base+len(vals) > len(m.mem) {
		panic(fmt.Sprintf("machine: Store [%d,%d) out of range 0..%d", base, base+len(vals), len(m.mem)))
	}
	copy(m.mem[base:], vals)
	m.dirty = max(m.dirty, base+len(vals))
}

// LoadWords copies n words starting at base out of shared memory.
// Host-side access, uncharged.
func (m *Machine) LoadWords(base, n int) []Word {
	out := make([]Word, n)
	m.LoadInto(base, out)
	return out
}

// LoadInto copies len(dst) words starting at base into dst. Host-side
// access, uncharged.
func (m *Machine) LoadInto(base int, dst []Word) {
	if base < 0 || base+len(dst) > len(m.mem) {
		panic(fmt.Sprintf("machine: load [%d,%d) out of range 0..%d", base, base+len(dst), len(m.mem)))
	}
	copy(dst, m.mem[base:])
}

// Fill sets n cells starting at base to v. Host-side access, uncharged.
func (m *Machine) Fill(base, n int, v Word) {
	if base < 0 || n < 0 || base+n > len(m.mem) {
		panic("machine: Fill out of range")
	}
	if v == 0 {
		clear(m.mem[base : base+n])
		return
	}
	for i := range n {
		m.mem[base+i] = v
	}
	m.dirty = max(m.dirty, base+n)
}

// ResetStats zeroes the accumulated statistics, trace, and sticky error
// without touching memory contents.
func (m *Machine) ResetStats() {
	m.stats = Stats{}
	m.trace = nil
	m.err = nil
	m.stepIndex = 0
	m.bulkDescs.Store(0)
	m.bulkExpanded.Store(0)
	m.serialSteps.Store(0)
}

// Reset zeroes memory, releases all allocations and host slices, clears
// statistics and the trace, and restores the construction-time
// profiling settings, keeping every backing array (mem, the step
// buffers and the host arena) at its current capacity. It is the cheap
// way to reuse one Machine across algorithm runs without reallocating,
// and the reason pooled sessions can never leak a previous run's trace
// or tracing cost.
//
// Zeroing costs O(words written), not O(capacity): every word at or
// above the machine's dirty high-water mark is already zero, so Reset
// clears only the words below it — the span from address zero to the
// highest address any step, scan or host store wrote.
func (m *Machine) Reset() {
	clear(m.mem[:m.dirty])
	m.dirty = 0
	m.brk, m.peak = 0, 0
	m.host, m.hostMarks = m.host[:0], m.hostMarks[:0]
	m.DisableProfiling()
	m.ResetStats()
}

// Free releases the machine's backing stores: shared memory, the host
// arena and the step buffers (which return to a package-level pool for
// other machines to reuse). (The contention scratch is never the
// machine's to free: it is leased per settlement from a package-level
// free list.)
// The machine stays valid — allocation restarts at address zero and the
// arrays are re-grown on demand — but unlike Reset nothing is retained,
// so Free is the right call when a machine becomes idle for a long time
// or was sized for a much larger workload than what follows.
func (m *Machine) Free() {
	m.mem = nil
	m.brk, m.peak, m.dirty = 0, 0, 0
	if m.wk != nil {
		putWorker(m.wk)
		m.wk = nil
	}
	m.hotMerge = nil
	m.bulkB = Bulk{}
	m.host, m.hostMarks = nil, nil
	m.DisableProfiling()
	m.ResetStats()
}

// checkAddr panics unless addr is a cell of shared memory. The panic
// is built out of line, so the check inlines into Word and the Ctx
// accessors.
func (m *Machine) checkAddr(addr int) {
	if uint(addr) >= uint(len(m.mem)) {
		m.addrFault(addr)
	}
}

//go:noinline
func (m *Machine) addrFault(addr int) {
	panic(fmt.Sprintf("machine: address %d out of range 0..%d", addr, len(m.mem)))
}
