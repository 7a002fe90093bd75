package machine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lowcontend/internal/xrand"
)

// serialCutoff is the initial processor count below which a step runs on
// a single host goroutine; the machine adapts it from measured step
// timings (gang.go).
const serialCutoff = 2048

// minChunk is the floor on the size of one dynamically scheduled
// processor chunk.
const minChunk = 1024

type writeOp struct {
	addr int
	val  Word
	proc int32
}

// worker owns the per-goroutine buffers of one step shard. Workers are
// pooled at package level (see workerPool) so that machines created and
// dropped in a loop reuse buffer capacity instead of reallocating it.
type worker struct {
	readAddrs []int
	writes    []writeOp

	// lo/hi bound the shared-memory addresses this shard's scalar
	// accesses touched. On the serial path they bound the whole step; on
	// the gang path they are reset around each claimed chunk and
	// recorded per chunk in Machine.chunkB, so the fast-path disjointness
	// proof is independent of which member ran which chunk.
	lo, hi int

	// dirtyHi is one past the highest address this shard's settlement
	// wrote to memory this step. Kept per shard so parallel settlement
	// never shares it; mergeAndCharge folds it into the machine's dirty
	// mark. (hi cannot serve: the gang resets it around every chunk.)
	dirtyHi int

	// rSeen/wSeen are the over-threshold dedupe indexes for processors
	// issuing many accesses in one step: below dedupeMapThreshold
	// entries the per-access dedupe stays a linear scan of the
	// processor's own segment, above it the segment is indexed once and
	// lookups are O(1). wSeen maps address to buffer position because a
	// repeated write overwrites its buffered value.
	rSeen map[int]struct{}
	wSeen map[int]int

	maxOps   int64
	reads    int64
	writesN  int64
	computes int64

	maxR      int64 // filled in the contention phase
	maxRAddr  int
	maxW      int64
	maxWAddr  int
	simdViol  bool
	simdCount int64
	simdProc  int // lowest processor index violating the SIMD rule

	// contended queues this shard's writes to cells other shards also
	// wrote, for the sharded path's processor-order arbitration pass.
	contended []writeOp

	// claims counts the cursor chunks this member claimed in the current
	// fused dispatch; gangRun folds it into the machine's utilization
	// telemetry after the dispatch barrier.
	claims int64

	// hotR/hotW hold this shard's hot-cell candidates — its top-K
	// addresses by read and by write contention — when hot-cell
	// attribution is enabled. Empty (and never touched) otherwise.
	hotR []hotCand
	hotW []hotCand

	// ctx is the Ctx handed to every processor body this shard runs.
	// Living inside the (pooled, heap-resident) worker rather than on
	// the step loop's stack keeps ParDo allocation-free: a stack Ctx
	// would escape through the unknown body function on every step.
	ctx Ctx
}

// hotCand is one shard-local hot-cell candidate: a touched address with
// its final per-cell contention counts, ranked by the count of the list
// it lives in (reads for hotR, writes for hotW).
type hotCand struct {
	addr          int
	reads, writes int64
	rank          int64
}

// workerPool recycles worker buffers across machines.
var workerPool = sync.Pool{New: func() any { return new(worker) }}

func getWorker() *worker { return workerPool.Get().(*worker) }

func putWorker(w *worker) {
	w.ctx = Ctx{} // drop the machine reference so the pool never pins freed memory
	workerPool.Put(w)
}

// counters is one lease of per-cell contention scratch: read and write
// counts for addresses [0, len(r)). Settlement resets every counter it
// raised, so a scratch is all-zero whenever it is not on lease, and any
// machine can settle into any scratch that covers its touched addresses.
type counters struct {
	r, w []int32
}

// scratchFree is the free list of idle contention scratch, sorted by
// length. Counts are needed only while a step settles, so no machine
// holds scratch between steps: an idle session keeps only its memory.
// out counts the scratch on lease, for the tests' leak check.
var scratchFree struct {
	sync.Mutex
	list []counters
	out  int
}

func countersLen(c counters, n int) int { return cmp.Compare(len(c.r), n) }

// leaseCounters returns zeroed scratch covering addresses [0, n): the
// shortest idle scratch that fits, or else the longest one replaced by
// one of doubled length (at least n). A settlement with no scalar
// entries (n == 0) counts nothing and leases nothing.
func leaseCounters(n int) counters {
	if n <= 0 {
		return counters{}
	}
	f := &scratchFree
	f.Lock()
	var c counters
	if k := len(f.list); k > 0 {
		i, _ := slices.BinarySearchFunc(f.list, n, countersLen)
		i = min(i, k-1)
		c = f.list[i]
		f.list = slices.Delete(f.list, i, i+1)
	}
	f.out++
	f.Unlock()
	if len(c.r) < n {
		n = max(n, 2*len(c.r))
		c = counters{make([]int32, n), make([]int32, n)}
	}
	return c
}

// releaseCounters returns a settled (all-zero) lease to the free list.
func releaseCounters(c counters) {
	if len(c.r) == 0 {
		return
	}
	f := &scratchFree
	f.Lock()
	i, _ := slices.BinarySearchFunc(f.list, len(c.r), countersLen)
	f.list = slices.Insert(f.list, i, c)
	f.out--
	f.Unlock()
}

func (w *worker) reset() {
	w.readAddrs = w.readAddrs[:0]
	w.writes = w.writes[:0]
	w.lo, w.hi = math.MaxInt, -1
	w.dirtyHi = 0
	w.claims = 0
	w.maxOps = 0
	w.reads, w.writesN, w.computes = 0, 0, 0
	w.maxR, w.maxW = 0, 0
	w.maxRAddr, w.maxWAddr = -1, -1
	w.simdViol = false
	w.simdCount = 0
	w.simdProc = -1
	w.contended = w.contended[:0]
	w.hotR = w.hotR[:0]
	w.hotW = w.hotW[:0]
}

func (w *worker) touch(addr int) {
	if addr < w.lo {
		w.lo = addr
	}
	if addr > w.hi {
		w.hi = addr
	}
}

// Ctx is the view a virtual processor has of the machine during one step.
// A Ctx is only valid inside the body function passed to ParDo.
type Ctx struct {
	m    *Machine
	w    *worker
	step uint64
	proc int

	r, wr, cp int64
	// rStart/wStart mark where this processor's entries begin in the
	// worker buffers; they bound the dedupe scans that keep contention
	// counted per *distinct processor* (Definition 2.1), not per
	// access. rMapOn/wMapOn record that the over-threshold dedupe index
	// has been built for this processor (see readElem/writeElem).
	rStart, wStart int
	rMapOn, wMapOn bool

	rng   xrand.Stream
	rngOK bool
}

// dedupeMapThreshold is the per-processor access count at which the
// linear dedupe scan switches to a map index: below it the scan is a
// handful of comparisons over hot cache lines (faster than hashing),
// above it the scan's O(k^2) total cost would dominate the step.
const dedupeMapThreshold = 16

// Read reads one shared-memory cell. The value observed is the cell's
// contents at the beginning of the step (writes of the same step are not
// visible). The access is recorded for contention accounting.
func (c *Ctx) Read(addr int) Word {
	c.m.checkAddr(addr)
	c.r++
	// Definition 2.1 counts the number of *processors* reading a cell,
	// so a repeated read by the same processor is recorded once.
	c.readElem(addr)
	return c.m.mem[addr]
}

// readElem records one read address with per-processor dedupe: a linear
// scan of the processor's own segment below dedupeMapThreshold entries,
// a map index above it.
func (c *Ctx) readElem(addr int) {
	w := c.w
	if !c.rMapOn {
		seg := w.readAddrs[c.rStart:]
		if len(seg) < dedupeMapThreshold {
			for _, a := range seg {
				if a == addr {
					return
				}
			}
			w.readAddrs = append(w.readAddrs, addr)
			w.touch(addr)
			return
		}
		if w.rSeen == nil {
			w.rSeen = make(map[int]struct{}, 2*dedupeMapThreshold)
		} else {
			clear(w.rSeen)
		}
		for _, a := range seg {
			w.rSeen[a] = struct{}{}
		}
		c.rMapOn = true
	}
	if _, dup := w.rSeen[addr]; dup {
		return
	}
	w.rSeen[addr] = struct{}{}
	w.readAddrs = append(w.readAddrs, addr)
	w.touch(addr)
}

// Write buffers a write to one shared-memory cell; it becomes visible at
// the end of the step. If several processors write the same cell in a
// step, an arbitrary write succeeds (deterministically, the highest
// processor index wins; see Stats for why that invariant matters).
func (c *Ctx) Write(addr int, v Word) {
	c.m.checkAddr(addr)
	c.wr++
	// As with reads, contention counts distinct processors; a repeated
	// write by the same processor overwrites its buffered value (program
	// order within the processor).
	c.writeElem(addr, v)
}

// writeElem buffers one write with per-processor dedupe, switching from
// the backward linear scan to a map index above dedupeMapThreshold
// entries (the map carries buffer positions so a repeated write still
// overwrites in place).
func (c *Ctx) writeElem(addr int, v Word) {
	w := c.w
	if !c.wMapOn {
		if len(w.writes)-c.wStart < dedupeMapThreshold {
			for j := len(w.writes) - 1; j >= c.wStart; j-- {
				if w.writes[j].addr == addr {
					w.writes[j].val = v
					return
				}
			}
			w.writes = append(w.writes, writeOp{addr: addr, val: v, proc: int32(c.proc)})
			w.touch(addr)
			return
		}
		if w.wSeen == nil {
			w.wSeen = make(map[int]int, 2*dedupeMapThreshold)
		} else {
			clear(w.wSeen)
		}
		for j := c.wStart; j < len(w.writes); j++ {
			w.wSeen[w.writes[j].addr] = j
		}
		c.wMapOn = true
	}
	if j, dup := w.wSeen[addr]; dup {
		w.writes[j].val = v
		return
	}
	w.wSeen[addr] = len(w.writes)
	w.writes = append(w.writes, writeOp{addr: addr, val: v, proc: int32(c.proc)})
	w.touch(addr)
}

// Compute charges n local RAM operations to this processor for this step.
// Reads and writes implicitly charge themselves; call Compute for
// substantial local work (e.g. a sequential sort of k items).
func (c *Ctx) Compute(n int) {
	if n < 0 {
		panic("machine: Compute with negative count")
	}
	c.cp += int64(n)
}

// Rand returns this processor's private random stream for this step. The
// stream is a pure function of (machine seed, step index, processor
// index), so results do not depend on host scheduling.
func (c *Ctx) Rand() *xrand.Stream {
	if !c.rngOK {
		c.rng.Reseed(xrand.Mix3(c.m.seed, c.step, uint64(c.proc)))
		c.rngOK = true
	}
	return &c.rng
}

// SeedFor returns the random-stream key that processor proc uses at the
// given step index. It lets a processor replay the random choices another
// (or an earlier) step made — e.g. to re-derive dart targets during a
// verification step instead of storing them — which is legal local
// computation on a PRAM.
func (c *Ctx) SeedFor(step uint64, proc int) uint64 {
	return xrand.Mix3(c.m.seed, step, uint64(proc))
}

// StepCount returns the number of steps executed so far; the next ParDo
// runs as step StepCount()+1.
func (m *Machine) StepCount() uint64 { return m.stepIndex }

func (w *worker) afterProc(c *Ctx, simd bool) {
	if c.r > w.maxOps {
		w.maxOps = c.r
	}
	if c.wr > w.maxOps {
		w.maxOps = c.wr
	}
	if c.cp > w.maxOps {
		w.maxOps = c.cp
	}
	w.reads += c.r
	w.writesN += c.wr
	w.computes += c.cp
	if simd && (c.r > 1 || c.wr > 1 || c.cp > 1) && !w.simdViol {
		// Processors run in ascending index order within a shard (and
		// within each gang chunk, with chunks claimed in ascending
		// order), so the first violation seen is this shard's
		// lowest-indexed violator — the merge picks the global minimum.
		w.simdViol = true
		w.simdCount = max(c.r, c.wr, c.cp)
		w.simdProc = c.proc
	}
}

// runProcs resets the shard and executes the processor bodies of
// [lo, hi) against the shard's own Ctx.
func (w *worker) runProcs(m *Machine, lo, hi int, simd bool, body func(c *Ctx, i int)) {
	w.reset()
	c := &w.ctx
	c.m, c.w, c.step = m, w, m.stepIndex
	w.runRange(lo, hi, simd, body)
}

// runRange executes the processor bodies of [lo, hi) against the
// shard's Ctx without resetting the shard; the gang's chunk loop calls
// it once per claimed chunk.
func (w *worker) runRange(lo, hi int, simd bool, body func(c *Ctx, i int)) {
	c := &w.ctx
	for i := lo; i < hi; i++ {
		c.proc = i
		c.r, c.wr, c.cp = 0, 0, 0
		c.rStart = len(w.readAddrs)
		c.wStart = len(w.writes)
		c.rMapOn, c.wMapOn = false, false
		c.rngOK = false
		body(c, i)
		w.afterProc(c, simd)
	}
}

// ParDo executes one synchronous PRAM step with p virtual processors.
// body is invoked once per processor with that processor's Ctx and index.
// body must not retain the Ctx, must not touch the machine directly, and
// must be safe to call concurrently for distinct processors.
func (m *Machine) ParDo(p int, body func(c *Ctx, i int)) error {
	return m.parDoLabeled(p, "", body)
}

// ParDoL is ParDo with a trace label attached to the step.
func (m *Machine) ParDoL(p int, label string, body func(c *Ctx, i int)) error {
	return m.parDoLabeled(p, label, body)
}

func (m *Machine) parDoLabeled(p int, label string, body func(c *Ctx, i int)) error {
	if m.err != nil {
		return m.err
	}
	if p <= 0 {
		return fmt.Errorf("machine: ParDo with %d processors", p)
	}
	m.stepIndex++
	simd := m.model.SIMD()

	// Route: steps at or above the serial cutoff go to the resident gang
	// (gang.go) when one can engage; everything else runs inline on a
	// single host goroutine — no dispatch, no closures, no allocation.
	if m.maxWorkers > 1 && p >= m.effCutoff {
		return m.gangRun(p, label, simd, body)
	}
	if len(m.pool) < 1 {
		m.pool = append(m.pool, getWorker())
	}
	adapt := m.adaptive()
	var t0 time.Time
	if adapt {
		t0 = time.Now()
	}
	m.pool[0].runProcs(m, 0, p, simd, body)
	if adapt {
		m.observeSerial(p, time.Since(t0))
	}
	return m.finishStep(p, label, nil)
}

// finishStep settles the scalar buffers of one step executed on the
// single worker m.pool[0] and merges, polices, and charges it. It is
// shared by the serial ParDo route (bs nil) and Bulk.Commit, whose
// descriptors settleBulk has already settled into bs — the expanded
// ones into the worker's buffers; gang steps settle inside the fused
// dispatch (gang.go) and merge through the same mergeAndCharge.
func (m *Machine) finishStep(p int, label string, bs *bulkSettle) error {
	m.serialSteps.Add(1)
	workers := m.pool[:1]
	w := workers[0]
	// The worker's bounds cover its scalar entries, expanded descriptor
	// cells included (expansion touches them), so the lease spans exactly
	// the addresses this settlement counts.
	cnt := leaseCounters(w.hi + 1)
	// A single worker owns every cell it touched, so the contention-free
	// local settlement is always legal (noFastPath still forces the
	// sharded machinery, for testing that both paths charge identically).
	if !m.noFastPath {
		m.fastSteps++
		w.settleLocal(m, cnt)
	} else {
		m.settleSharded(1, workers, cnt)
	}
	releaseCounters(cnt)
	return m.mergeAndCharge(p, label, workers, bs)
}

// mergeAndCharge merges the workers' accounting and, for a Bulk step,
// the bulk layer's (bs; nil otherwise), checks model legality, and
// charges the step. Every fold is order-independent — sums, maxima with
// a smallest-address (or lowest-processor) tie-break — so the result is
// identical whatever partition of the step's processors produced the
// workers' buffers.
func (m *Machine) mergeAndCharge(p int, label string, workers []*worker, bs *bulkSettle) error {
	var maxOps, maxR, maxW int64
	maxRAddr, maxWAddr := -1, -1
	var reads, writes, computes int64
	simdViol := false
	var simdCount int64
	simdProc := math.MaxInt
	for _, w := range workers {
		// Fold the settled writes into the dirty mark first: memory has
		// changed even if the step turns out to be a model violation.
		m.dirty = max(m.dirty, w.dirtyHi)
		if w.maxOps > maxOps {
			maxOps = w.maxOps
		}
		if w.maxR > maxR || (w.maxR == maxR && maxR > 0 && w.maxRAddr < maxRAddr) {
			maxR, maxRAddr = w.maxR, w.maxRAddr
		}
		if w.maxW > maxW || (w.maxW == maxW && maxW > 0 && w.maxWAddr < maxWAddr) {
			maxW, maxWAddr = w.maxW, w.maxWAddr
		}
		reads += w.reads
		writes += w.writesN
		computes += w.computes
		if w.simdViol && w.simdProc < simdProc {
			simdViol = true
			simdCount = w.simdCount
			simdProc = w.simdProc
		}
	}
	// Fold in the bulk layer's analytic contributions (descriptor
	// totals, per-processor load, and the contention of descriptors that
	// settled without expansion). bs.maxRAddr/maxWAddr may be the -1
	// sentinel (charge-only descriptors); a sentinel never wins a tie
	// against a real address.
	if bs != nil {
		maxOps = max(maxOps, bs.maxOps)
		if bs.maxR > maxR || (bs.maxR == maxR && maxR > 0 && bs.maxRAddr >= 0 && bs.maxRAddr < maxRAddr) {
			maxR, maxRAddr = bs.maxR, bs.maxRAddr
		}
		if bs.maxW > maxW || (bs.maxW == maxW && maxW > 0 && bs.maxWAddr >= 0 && bs.maxWAddr < maxWAddr) {
			maxW, maxWAddr = bs.maxW, bs.maxWAddr
		}
		reads += bs.reads
		writes += bs.writes
		computes += bs.computes
		if bs.simdViol && bs.simdProc < simdProc {
			simdViol = true
			simdCount = bs.simdCount
		}
	}

	// Model violation checks: the SIMD one-op-per-kind restriction is
	// per-processor and detected during Phase 0; cell-contention
	// legality is the model's call.
	if simdViol {
		m.err = &ViolationError{Model: m.model, Step: int64(m.stepIndex), Kind: "simd-multi-op", Count: simdCount}
	} else if kind := m.model.violation(maxR, maxW); kind != "" {
		addr, count := maxRAddr, maxR
		if kind == "concurrent-write" {
			addr, count = maxWAddr, maxW
		}
		m.err = &ViolationError{Model: m.model, Step: int64(m.stepIndex), Kind: kind, Addr: addr, Count: count}
	}
	if m.err != nil {
		return m.err
	}

	// Step cost (Definition 2.3, delegated to the model). A
	// step with no accesses has m = 1: issuing the step is one unit.
	cost := m.model.stepCost(max(maxOps, 1), maxR, maxW)

	kappa := max(maxR, maxW, 1)
	m.stats.Steps++
	m.stats.Time += cost
	m.stats.Ops += reads + writes + computes
	m.stats.PTWork += int64(p) * cost
	m.stats.ReadOps += reads
	m.stats.WriteOps += writes
	m.stats.ComputeOps += computes
	if kappa > m.stats.MaxContention {
		m.stats.MaxContention = kappa
	}
	m.stats.SumContention += kappa
	if int64(p) > m.stats.MaxProcs {
		m.stats.MaxProcs = int64(p)
	}
	if m.tracing {
		var hot []HotCell
		if m.hotK > 0 {
			hot = m.mergeHotCells(workers)
		}
		m.trace = append(m.trace, StepTrace{
			Step:      int64(m.stepIndex),
			Procs:     p,
			MaxOps:    maxOps,
			ReadCont:  maxR,
			WriteCont: maxW,
			Cost:      cost,
			Ops:       reads + writes + computes,
			Label:     label,
			HotCells:  hot,
		})
	}
	return nil
}

// settleLocal counts contention, extracts the shard's maxima, applies the
// shard's writes, and resets the scratch counters — all without atomics,
// legal only when no other shard touches this shard's cells. Writes are
// applied in buffer order: processors run in increasing index order
// within a shard (gang members claim chunks in ascending order), so the
// last buffered write to a cell is the highest-indexed writer, preserving
// the machine's arbitration invariant. The kappa arg-max breaks count
// ties toward the smallest address, so the reported address is the same
// whatever partition produced the shards.
func (w *worker) settleLocal(m *Machine, cnt counters) {
	for _, a := range w.readAddrs {
		cnt.r[a]++
	}
	for _, op := range w.writes {
		cnt.w[op.addr]++
	}
	for _, a := range w.readAddrs {
		if c := int64(cnt.r[a]); c > w.maxR || (c == w.maxR && a < w.maxRAddr) {
			w.maxR, w.maxRAddr = c, a
		}
	}
	for _, op := range w.writes {
		if c := int64(cnt.w[op.addr]); c > w.maxW || (c == w.maxW && op.addr < w.maxWAddr) {
			w.maxW, w.maxWAddr = c, op.addr
		}
		m.mem[op.addr] = op.val
		w.dirtyHi = max(w.dirtyHi, op.addr+1)
	}
	if m.hotK > 0 {
		w.collectHot(m.hotK, cnt)
	}
	for _, a := range w.readAddrs {
		cnt.r[a] = 0
	}
	for _, op := range w.writes {
		cnt.w[op.addr] = 0
	}
}

// settleSharded is the general path: cells may be shared across shards,
// so contention is counted with atomic per-cell counters and contended
// writes are arbitrated centrally. Fan-out goes through the resident
// gang (runPar), or runs inline when nw == 1. cnt must cover every
// address the workers' buffers hold.
func (m *Machine) settleSharded(nw int, workers []*worker, cnt counters) {
	// Phase A: count contention per cell.
	m.runPar(nw, func(s int) {
		w := workers[s]
		for _, a := range w.readAddrs {
			atomic.AddInt32(&cnt.r[a], 1)
		}
		for _, op := range w.writes {
			atomic.AddInt32(&cnt.w[op.addr], 1)
		}
	})

	// Phase B: extract per-shard contention maxima (count ties break
	// toward the smallest address, so the arg-max is independent of the
	// chunk schedule); apply sole-writer writes directly (no other shard
	// can touch that cell) and queue contended ones for arbitration.
	m.runPar(nw, func(s int) {
		w := workers[s]
		for _, a := range w.readAddrs {
			if c := int64(cnt.r[a]); c > w.maxR || (c == w.maxR && a < w.maxRAddr) {
				w.maxR, w.maxRAddr = c, a
			}
		}
		for _, op := range w.writes {
			if c := int64(cnt.w[op.addr]); c > w.maxW || (c == w.maxW && op.addr < w.maxWAddr) {
				w.maxW, w.maxWAddr = c, op.addr
			}
			if cnt.w[op.addr] == 1 {
				m.mem[op.addr] = op.val
				w.dirtyHi = max(w.dirtyHi, op.addr+1)
			} else {
				w.contended = append(w.contended, op)
			}
		}
		// The counters still hold every cell's final count (they reset
		// in phase C), so hot-cell candidates collected here carry
		// global contention, exactly as on the fast path.
		if m.hotK > 0 {
			w.collectHot(m.hotK, cnt)
		}
	})

	// Arbitrate contended writes serially, in ascending processor order:
	// a stable sort by processor index makes the highest-indexed writer
	// win each cell (the machine's documented arbitration invariant)
	// regardless of which shard buffered which write — the property that
	// keeps memory contents identical under dynamic chunk scheduling.
	// Within one processor the stable sort preserves buffer order, i.e.
	// program order. Contention is what the paper's algorithms are
	// designed to avoid, so this list is short on every hot path — and
	// its length is already charged to the simulated step cost.
	cont := m.contScratch[:0]
	for s := 0; s < nw; s++ {
		cont = append(cont, workers[s].contended...)
	}
	if len(cont) > 0 {
		slices.SortStableFunc(cont, func(a, b writeOp) int { return cmp.Compare(a.proc, b.proc) })
		for _, op := range cont {
			m.mem[op.addr] = op.val
			m.dirty = max(m.dirty, op.addr+1)
		}
	}
	m.contScratch = cont[:0]

	// Phase C: reset the scratch arrays via the touched-address lists.
	// Shards may share cells here, so the stores must be atomic (they
	// all write zero, but racing plain writes are undefined under the
	// Go memory model).
	m.runPar(nw, func(s int) {
		w := workers[s]
		for _, a := range w.readAddrs {
			atomic.StoreInt32(&cnt.r[a], 0)
		}
		for _, op := range w.writes {
			atomic.StoreInt32(&cnt.w[op.addr], 0)
		}
	})
}

// collectHot gathers this shard's top-K contended cells from the
// populated contention counters. At the point it runs the counters hold
// every touched cell's final count — on the fast path the shard owns its
// cells outright; on the sharded path phase A has completed — so each
// candidate carries the cell's global per-step contention.
func (w *worker) collectHot(k int, cnt counters) {
	for _, a := range w.readAddrs {
		c := hotCand{addr: a, reads: int64(cnt.r[a]), writes: int64(cnt.w[a])}
		c.rank = c.reads
		w.hotR = insertHot(w.hotR, k, c)
	}
	for _, op := range w.writes {
		c := hotCand{addr: op.addr, reads: int64(cnt.r[op.addr]), writes: int64(cnt.w[op.addr])}
		c.rank = c.writes
		w.hotW = insertHot(w.hotW, k, c)
	}
}

// insertHot maintains a top-k candidate list: dedupe by address (a
// repeated address carries the same final counts), fill to k, then
// replace the weakest entry when a stronger candidate arrives. The
// retained set is exactly the top k by (rank desc, addr asc) and is
// independent of insertion order, which keeps hot cells deterministic
// across worker counts and settlement paths.
func insertHot(s []hotCand, k int, c hotCand) []hotCand {
	for i := range s {
		if s[i].addr == c.addr {
			return s
		}
	}
	if len(s) < k {
		return append(s, c)
	}
	weakest := 0
	for i := 1; i < len(s); i++ {
		if s[i].rank < s[weakest].rank ||
			(s[i].rank == s[weakest].rank && s[i].addr > s[weakest].addr) {
			weakest = i
		}
	}
	if c.rank > s[weakest].rank ||
		(c.rank == s[weakest].rank && c.addr < s[weakest].addr) {
		s[weakest] = c
	}
	return s
}

// mergeHotCells merges the shards' candidate lists into the step's top-K
// hot cells. Dedupe is by address (every shard that kept an address saw
// its final counts); ranking is by contention — max(readers, writers) —
// descending, address ascending as the tie-break. The union of shard
// lists always contains the global top K: a cell evicted from a shard's
// list lost to k cells that all outrank it globally. Truncating the
// sorted merge to K therefore yields the same set whatever the shard
// partition, so traces are identical across worker counts.
func (m *Machine) mergeHotCells(workers []*worker) []HotCell {
	sc := m.hotMerge[:0]
	merge := func(c hotCand) {
		for i := range sc {
			if sc[i].Addr == c.addr {
				return
			}
		}
		sc = append(sc, HotCell{Addr: c.addr, Reads: c.reads, Writes: c.writes})
	}
	for _, w := range workers {
		for _, c := range w.hotR {
			merge(c)
		}
		for _, c := range w.hotW {
			merge(c)
		}
	}
	slices.SortFunc(sc, func(a, b HotCell) int {
		if ca, cb := a.Cont(), b.Cont(); ca != cb {
			return cmp.Compare(cb, ca)
		}
		return cmp.Compare(a.Addr, b.Addr)
	})
	if len(sc) > m.hotK {
		sc = sc[:m.hotK]
	}
	out := slices.Clone(sc)
	m.hotMerge = sc[:0] // keep the (possibly grown) scratch capacity
	return out
}
