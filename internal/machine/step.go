package machine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"lowcontend/internal/xrand"
)

type writeOp struct {
	addr int
	val  Word
}

// worker owns the buffers of one step: the processors' scalar accesses
// and the step's accounting. Workers are pooled at package level (see
// workerPool) so that machines created and dropped in a loop reuse
// buffer capacity instead of reallocating it.
type worker struct {
	readAddrs []int
	writes    []writeOp

	// hi is the highest shared-memory address the step's scalar
	// accesses touched (-1 when none), so settlement leases contention
	// scratch covering exactly [0, hi].
	hi int

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
	simdCount int64 // operations of the lowest processor violating the SIMD rule (0: none)

	// hotR/hotW hold the step's hot-cell candidates — its top-K
	// addresses by read and by write contention — when hot-cell
	// attribution is enabled. Empty (and never touched) otherwise.
	hotR []hotCand
	hotW []hotCand

	// ctx is the Ctx handed to every processor body of the step.
	// Living inside the (pooled, heap-resident) worker rather than on
	// the step loop's stack keeps ParDo allocation-free: a stack Ctx
	// would escape through the unknown body function on every step.
	ctx Ctx
}

// hotCand is one hot-cell candidate: a touched address with
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
// counts for addresses [0, len(r)), one byte per cell and kind, so a
// lease costs 2 B per covered word. A byte saturates at 255; a count
// above it keeps the byte at 255 and its excess in spill, keyed by
// address and kind, which is made on the lease's first such count and
// kept (cleared) with the lease. Settlement resets every counter it
// raised and clears spill, so a scratch is all-zero whenever it is not
// on lease, and any machine can settle into any scratch that covers its
// touched addresses.
type counters struct {
	r, w  []uint8
	spill map[spillKey]int64
}

// spillKey names one counter that passed 255: a cell and its kind.
type spillKey struct {
	addr  int
	write bool
}

// bump raises cell a's read (or, when write, write) count by one and
// returns the new count.
func (c *counters) bump(a int, write bool) int64 {
	b := c.r
	if write {
		b = c.w
	}
	if v := b[a] + 1; v != 0 {
		b[a] = v
		return int64(v)
	}
	// The byte is saturated: count the excess in spill.
	if c.spill == nil {
		c.spill = make(map[spillKey]int64)
	}
	k := spillKey{a, write}
	c.spill[k]++
	return math.MaxUint8 + c.spill[k]
}

// count returns cell a's read (or, when write, write) count.
func (c *counters) count(a int, write bool) int64 {
	b := c.r
	if write {
		b = c.w
	}
	if v := b[a]; v != math.MaxUint8 {
		return int64(v)
	}
	return math.MaxUint8 + c.spill[spillKey{a, write}]
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
		c.r, c.w = make([]uint8, n), make([]uint8, n)
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
	w.hi = -1
	w.maxOps = 0
	w.reads, w.writesN, w.computes = 0, 0, 0
	w.maxR, w.maxW = 0, 0
	w.maxRAddr, w.maxWAddr = -1, -1
	w.simdCount = 0
	w.hotR = w.hotR[:0]
	w.hotW = w.hotW[:0]
}

func (w *worker) touch(addr int) {
	if addr > w.hi {
		w.hi = addr
	}
}

// Ctx is the view a virtual processor has of the machine during one step.
// A Ctx is only valid inside the body function passed to ParDo.
type Ctx struct {
	m    *Machine
	w    *worker
	proc int

	// stepKey is xrand.StepKey of the machine seed and this step, so a
	// processor's stream costs one mixer call; sfStep/sfKey memoize the
	// StepKey of the step SeedFor last replayed (valid while sfOK).
	stepKey       uint64
	sfStep, sfKey uint64
	sfOK          bool

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
			w.writes = append(w.writes, writeOp{addr: addr, val: v})
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
	w.writes = append(w.writes, writeOp{addr: addr, val: v})
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
		c.rng.Reseed(xrand.ProcKey(c.stepKey, uint64(c.proc)))
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
	if !c.sfOK || c.sfStep != step {
		c.sfStep, c.sfKey, c.sfOK = step, xrand.StepKey(c.m.seed, step), true
	}
	return xrand.ProcKey(c.sfKey, uint64(proc))
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
	if simd && (c.r > 1 || c.wr > 1 || c.cp > 1) && w.simdCount == 0 {
		// Processors run in ascending index order, so the first
		// violation seen is the lowest-indexed violator.
		w.simdCount = max(c.r, c.wr, c.cp)
	}
}

// beginStep resets the worker and points its Ctx at the machine's
// current step.
func (w *worker) beginStep(m *Machine) *Ctx {
	w.reset()
	c := &w.ctx
	c.m, c.w = m, w
	c.stepKey = xrand.StepKey(m.seed, m.stepIndex)
	c.sfOK = false
	return c
}

// beginProc readies c for processor i's body.
func (w *worker) beginProc(c *Ctx, i int) {
	c.proc = i
	c.r, c.wr, c.cp = 0, 0, 0
	c.rStart = len(w.readAddrs)
	c.wStart = len(w.writes)
	c.rMapOn, c.wMapOn = false, false
	c.rngOK = false
}

// runProcs resets the worker and executes the processor bodies of
// [0, p) in ascending index order against the worker's Ctx.
func (w *worker) runProcs(m *Machine, p int, simd bool, body func(c *Ctx, i int)) {
	c := w.beginStep(m)
	for i := range p {
		w.beginProc(c, i)
		body(c, i)
		w.afterProc(c, simd)
	}
}

// ParDo executes one synchronous PRAM step with p virtual processors.
// body is invoked once per processor with that processor's Ctx and
// index, in ascending index order on the calling goroutine. body must
// not retain the Ctx and must not touch the machine directly.
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
	w := m.worker()
	w.runProcs(m, p, m.model.SIMD(), body)
	return m.finishStep(p, label)
}

// ParDoGuardL is ParDoL for a step in which processor i opens by
// reading its guard cell guard+i and stops there when skip reports the
// value settled; body runs for the other processors, with g the guard
// value already read and recorded. It charges, traces and writes
// exactly what ParDoL does with the body
//
//	func(c *Ctx, i int) {
//		if g := c.Read(guard + i); !skip(g) {
//			body(c, i, g)
//		}
//	}
//
// but a skipped processor costs O(1) host work and records nothing. Its
// read is charged analytically: one op, and read contention one at its
// guard cell, which no other processor reads — unless an active body
// reads some skipped processor's guard cell, in which case the step
// buffers every skipped guard read and settles it with the rest. Under
// hot-cell profiling (and noBulkFast) the step runs as that ParDoL.
// skip must be a pure function of the value.
func (m *Machine) ParDoGuardL(p int, label string, guard int, skip func(Word) bool, body func(c *Ctx, i int, g Word)) error {
	if m.hotK > 0 || m.noBulkFast || m.err != nil || p <= 0 {
		return m.parDoLabeled(p, label, func(c *Ctx, i int) {
			if g := c.Read(guard + i); !skip(g) {
				body(c, i, g)
			}
		})
	}
	m.checkAddr(guard)
	m.checkAddr(guard + p - 1)
	m.stepIndex++
	w := m.worker()
	c := w.beginStep(m)
	simd := m.model.SIMD()
	gv := m.mem[guard : guard+p : guard+p]
	skipped, lo := 0, -1
	for i, g := range gv {
		if skip(g) {
			if skipped == 0 {
				lo = guard + i
			}
			skipped++
			continue
		}
		w.beginProc(c, i)
		c.r = 1
		w.readAddrs = append(w.readAddrs, guard+i)
		w.touch(guard + i)
		body(c, i, g)
		w.afterProc(c, simd)
	}
	if skipped > 0 {
		w.maxOps = max(w.maxOps, 1)
		w.reads += int64(skipped)
		if w.readsSkippedGuard(gv, guard, skip) {
			for i, g := range gv {
				if skip(g) {
					w.readAddrs = append(w.readAddrs, guard+i)
					w.touch(guard + i)
				}
			}
		} else {
			// Count ties break toward the smallest address, so the
			// lowest skipped guard cell stands for all of them.
			w.maxR, w.maxRAddr = 1, lo
		}
	}
	return m.finishStep(p, label)
}

// readsSkippedGuard reports whether a buffered read lands on a guard
// cell whose processor skipped: gv is the guard range's memory, still
// as of the beginning of the step.
func (w *worker) readsSkippedGuard(gv []Word, guard int, skip func(Word) bool) bool {
	for _, a := range w.readAddrs {
		if i := a - guard; i >= 0 && i < len(gv) && skip(gv[i]) {
			return true
		}
	}
	return false
}

// worker returns the machine's step buffers, taking them from the
// package-level pool on first use.
func (m *Machine) worker() *worker {
	if m.wk == nil {
		m.wk = getWorker()
	}
	return m.wk
}

// finishStep settles the scalar buffers of one step and polices and
// charges it. It is shared by ParDo, Bulk.Commit and CompareExchange;
// the last two have already folded their analytic accounting into the
// worker, and Bulk.Commit its expanded descriptors into the buffers.
func (m *Machine) finishStep(p int, label string) error {
	m.serialSteps.Add(1)
	w := m.wk
	// The worker's bound covers its scalar entries, expanded descriptor
	// cells included (expansion touches them), so the lease spans exactly
	// the addresses this settlement counts.
	cnt := leaseCounters(w.hi + 1)
	w.settleLocal(m, &cnt)
	releaseCounters(cnt)
	maxOps, maxR, maxW := w.maxOps, w.maxR, w.maxW
	reads, writes, computes := w.reads, w.writesN, w.computes

	// Legality and cost are the model's call (Definition 2.3). The
	// engine adds what the step's shape does not carry: the contended
	// address, and the SIMD rule's lowest violator, recorded while the
	// processor bodies ran.
	if kind, count := m.model.Violation(maxOps, maxR, maxW); kind != "" {
		ve := &ViolationError{Model: m.model, Step: int64(m.stepIndex), Kind: kind, Count: count}
		switch kind {
		case "simd-multi-op":
			ve.Count = w.simdCount
		case "concurrent-read":
			ve.Addr = w.maxRAddr
		default:
			ve.Addr = w.maxWAddr
		}
		m.err = ve
		return ve
	}
	cost := m.model.StepCost(maxOps, maxR, maxW)

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
			hot = m.mergeHotCells(w)
		}
		m.record(StepTrace{
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

// settleLocal counts contention, extracts the step's maxima, applies the
// step's writes, and resets the scratch counters. Each kind's counting
// pass also tracks its maximum: counts only grow, so the largest
// post-increment count is the final maximum, and the kappa arg-max
// breaks count ties toward the smallest address just as over final
// counts. Writes are applied in buffer order: processors run in
// increasing index order, so the last buffered write to a cell is the
// highest-indexed writer, preserving the machine's arbitration
// invariant.
func (w *worker) settleLocal(m *Machine, cnt *counters) {
	for _, a := range w.readAddrs {
		if c := cnt.bump(a, false); c > w.maxR || (c == w.maxR && a < w.maxRAddr) {
			w.maxR, w.maxRAddr = c, a
		}
	}
	for _, op := range w.writes {
		if c := cnt.bump(op.addr, true); c > w.maxW || (c == w.maxW && op.addr < w.maxWAddr) {
			w.maxW, w.maxWAddr = c, op.addr
		}
		m.mem[op.addr] = op.val
		m.dirty = max(m.dirty, op.addr+1)
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
	if len(cnt.spill) > 0 {
		clear(cnt.spill)
	}
}

// collectHot gathers the step's top-K contended cells, by reads and by
// writes, from the populated contention counters, which hold every
// touched cell's final count.
func (w *worker) collectHot(k int, cnt *counters) {
	for _, a := range w.readAddrs {
		c := hotCand{addr: a, reads: cnt.count(a, false), writes: cnt.count(a, true)}
		c.rank = c.reads
		w.hotR = insertHot(w.hotR, k, c)
	}
	for _, op := range w.writes {
		c := hotCand{addr: op.addr, reads: cnt.count(op.addr, false), writes: cnt.count(op.addr, true)}
		c.rank = c.writes
		w.hotW = insertHot(w.hotW, k, c)
	}
}

// insertHot maintains a top-k candidate list: dedupe by address (a
// repeated address carries the same final counts), fill to k, then
// replace the weakest entry when a stronger candidate arrives. The
// retained set is exactly the top k by (rank desc, addr asc).
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

// mergeHotCells merges the read and write candidate lists into the
// step's top-K hot cells. Dedupe is by address (both lists carry a
// cell's final counts); ranking is by contention — max(readers,
// writers) — descending, address ascending as the tie-break. The union
// of the two lists always contains the top K by contention: a cell
// evicted from a list lost to k cells that all outrank it.
func (m *Machine) mergeHotCells(w *worker) []HotCell {
	sc := m.hotMerge[:0]
	merge := func(c hotCand) {
		for i := range sc {
			if sc[i].Addr == c.addr {
				return
			}
		}
		sc = append(sc, HotCell{Addr: c.addr, Reads: c.reads, Writes: c.writes})
	}
	for _, c := range w.hotR {
		merge(c)
	}
	for _, c := range w.hotW {
		merge(c)
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
