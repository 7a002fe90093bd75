package machine

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// This file implements the machine's resident step-execution gang: a set
// of worker goroutines started lazily on the first parallel step and
// parked on an epoch barrier between steps, replacing the old
// spawn-per-step fan-out (a fresh goroutine set plus two full WaitGroup
// barriers per ParDo). One gang dispatch runs a *fused* step: every
// member executes processor chunks claimed from an atomic cursor AND,
// when the chunk-disjointness fast path applies, settles its own cells
// locally — collapsing body execution and settlement into a single
// barrier crossing.
//
// Determinism does not depend on which member runs which chunk: per-proc
// state (RNG streams, dedupe segments, per-proc maxima) keys off the
// processor index, chunk bounds are recorded by chunk index in
// m.chunkB, contended writes are arbitrated in processor order, and
// every accounting merge uses order-independent folds (max with a
// smallest-address tie-break, sums, top-K sets). Charged stats are
// therefore bit-identical at any gang width and any chunk schedule.

// defaultChunksPerWorker is the dynamic-scheduling granularity: enough
// chunks that an unlucky member can shed load, few enough that cursor
// traffic stays negligible.
const defaultChunksPerWorker = 4

// Bounds for the adaptive serial cutoff: it never adapts below
// minSerialCutoff (dispatch cost would always dominate) nor above
// maxSerialCutoff (steps that large always win parallel on multi-core).
const (
	minSerialCutoff = 256
	maxSerialCutoff = 1 << 17
)

// ---------------------------------------------------------------------
// The gang itself.

// Spin budgets for the barrier waits: a short busy spin (cheap when the
// wake-up is imminent on idle cores), a few cooperative yields (the
// common case on oversubscribed hosts, including 1-CPU CI), then a
// channel park (zero CPU while the machine is between steps).
const (
	spinBusy  = 128
	spinYield = 32
)

// gangEpoch is one link of the gang's epoch chain. The dispatching
// goroutine publishes job and next, then advances the epoch counter and
// closes start; helpers observe either (counter via spinning, channel
// via parking), run the job, and follow next. done/doneCh signal the
// dispatcher that every helper finished. Channels are per-epoch, so a
// slow helper from epoch k can never consume epoch k+1's wake-up.
type gangEpoch struct {
	seq    uint64
	start  chan struct{}
	job    func(member int)
	next   *gangEpoch
	done   atomic.Int32
	doneCh chan struct{}
}

// gang is a machine's resident worker set: members-1 parked goroutines
// plus the dispatching goroutine itself as member 0. Helpers hold no
// reference to the Machine — only to their current epoch link — so an
// abandoned machine is collectable and its finalizer can retire the
// gang.
type gang struct {
	members int
	epoch   atomic.Uint64 // latest published epoch seq
	tail    *gangEpoch    // the epoch the next dispatch publishes
}

func newGang(members int) *gang {
	g := &gang{members: members}
	g.tail = &gangEpoch{seq: 1, start: make(chan struct{}), doneCh: make(chan struct{})}
	for h := 1; h < members; h++ {
		go g.serve(h, g.tail)
	}
	return g
}

// serve is the helper loop: wait for the epoch, run its job, report
// done, follow the chain. A nil job is the retirement sentinel.
func (g *gang) serve(member int, e *gangEpoch) {
	for {
		g.await(e)
		job := e.job
		if job != nil {
			job(member)
		}
		next := e.next
		if e.done.Add(1) == int32(g.members-1) {
			close(e.doneCh)
		}
		if job == nil {
			return
		}
		e = next
	}
}

// await blocks until epoch e is published: spin, yield, then park on
// the epoch's start channel.
func (g *gang) await(e *gangEpoch) {
	for range spinBusy {
		if g.epoch.Load() >= e.seq {
			return
		}
	}
	for range spinYield {
		if g.epoch.Load() >= e.seq {
			return
		}
		runtime.Gosched()
	}
	<-e.start
}

// dispatch runs job concurrently on every member — member 0 on the
// calling goroutine — and returns once all members finished.
func (g *gang) dispatch(job func(member int)) {
	e := g.tail
	e.job = job
	e.next = &gangEpoch{seq: e.seq + 1, start: make(chan struct{}), doneCh: make(chan struct{})}
	g.tail = e.next
	g.epoch.Add(1) // publish: job/next stores happen-before helpers' loads
	close(e.start)
	job(0)
	waitDone(&e.done, int32(g.members-1), e.doneCh)
}

// stop retires the gang: helpers drain the nil-job epoch and exit. Safe
// to call from a finalizer — it touches only the gang's own state.
func (g *gang) stop() {
	e := g.tail
	e.job = nil
	g.epoch.Add(1)
	close(e.start)
	waitDone(&e.done, int32(g.members-1), e.doneCh)
}

// waitDone blocks until ctr reaches need: spin, yield, park.
func waitDone(ctr *atomic.Int32, need int32, parked <-chan struct{}) {
	if need <= 0 {
		return
	}
	for range spinBusy {
		if ctr.Load() >= need {
			return
		}
	}
	for range spinYield {
		if ctr.Load() >= need {
			return
		}
		runtime.Gosched()
	}
	<-parked
}

// ---------------------------------------------------------------------
// Machine integration.

// Fused-step settlement modes, published by member 0 after the arrival
// barrier.
const (
	gangModeUndecided int32 = iota
	gangModeFast            // members settle their own chunks locally
	gangModeSlow            // members stop; the sharded path runs after the dispatch
)

// gangStep is the work descriptor of one fused dispatch. It lives
// inside the Machine so a step allocates only the per-epoch channels.
type gangStep struct {
	p, chunk, nChunks int
	simd              bool
	body              func(*Ctx, int)

	cursor    atomic.Int64 // next unclaimed chunk
	arrived   atomic.Int32 // members past the body phase
	arrivedCh chan struct{}
	mode      atomic.Int32 // settlement mode, gangModeUndecided until published
	modeCh    chan struct{}

	// cnt is the step's contention scratch: member 0 leases it in
	// decideMode, before the mode publish orders it for the helpers, and
	// gangRun returns it once the step is settled.
	cnt counters
}

// gangEnsure arms the gang on first use. A finalizer retires the gang
// of a machine that is dropped without Free, so resident goroutines
// never outlive the machines that own them.
func (m *Machine) gangEnsure() *gang {
	if m.gang == nil {
		m.gang = newGang(m.maxWorkers)
		if !m.finalized {
			m.finalized = true
			runtime.SetFinalizer(m, (*Machine).retireGang)
		}
	}
	return m.gang
}

// retireGang stops the resident goroutines, if any. The machine stays
// valid: the next parallel step arms a fresh gang.
func (m *Machine) retireGang() {
	if m.gang != nil {
		m.gang.stop()
		m.gang = nil
	}
}

// gangRun executes one ParDo step on the gang with a single fused
// dispatch, then merges and charges it.
func (m *Machine) gangRun(p int, label string, simd bool, body func(c *Ctx, i int)) error {
	g := m.gangEnsure()
	nw := g.members
	for len(m.pool) < nw {
		m.pool = append(m.pool, getWorker())
	}

	// Chunk geometry: aim for chunksPer chunks per member, floored at
	// the minimum chunk size so cursor traffic stays negligible.
	cs := (p + nw*m.chunksPer - 1) / (nw * m.chunksPer)
	if cs < minChunk {
		cs = minChunk
	}
	nChunks := (p + cs - 1) / cs
	if cap(m.chunkB) < nChunks {
		m.chunkB = make([]addrIv, nChunks)
	}
	m.chunkB = m.chunkB[:nChunks]

	st := &m.gstep
	st.p, st.chunk, st.nChunks, st.simd, st.body = p, cs, nChunks, simd, body
	st.cursor.Store(0)
	st.arrived.Store(0)
	st.mode.Store(gangModeUndecided)
	st.arrivedCh = make(chan struct{})
	st.modeCh = make(chan struct{})

	m.gangDispatches.Add(1)
	var t0 time.Time
	adapt := m.adaptive()
	if adapt {
		t0 = time.Now()
	}
	g.dispatch(m.stepMember)
	if st.mode.Load() == gangModeSlow {
		m.gangSharded.Add(1)
		m.settleSharded(nw, m.pool[:nw], st.cnt)
	}
	releaseCounters(st.cnt)
	st.cnt = counters{}
	// Utilization fold: dispatch completion orders the members' claim
	// counters before these reads. A member's fair share is the even
	// chunk split; claims above it are chunks stolen from slower members.
	fair := int64((nChunks + nw - 1) / nw)
	var claimed, steals int64
	for _, w := range m.pool[:nw] {
		claimed += w.claims
		if w.claims > fair {
			steals += w.claims - fair
		}
	}
	m.chunksClaimed.Add(claimed)
	m.cursorSteals.Add(steals)
	m.growMembers(nw)
	st.body = nil // don't pin the closure until the next step
	err := m.mergeAndCharge(p, label, m.pool[:nw], nil)
	if adapt {
		m.observeParallel(p, time.Since(t0))
	}
	return err
}

// stepMember is the fused per-member step body: claim chunks from the
// cursor and run their processors, cross the arrival barrier, then —
// when member 0 proves the chunks' address intervals pairwise disjoint
// — settle the member's own cells locally with no atomics and no
// further barrier.
func (m *Machine) stepMember(member int) {
	st := &m.gstep
	w := m.pool[member]
	w.reset()
	c := &w.ctx
	c.m, c.w, c.step = m, w, m.stepIndex
	cs, p := st.chunk, st.p
	for {
		ck := int(st.cursor.Add(1)) - 1
		if ck >= st.nChunks {
			break
		}
		w.claims++
		lo := ck * cs
		hi := min(p, lo+cs)
		// Bounds are recorded per *chunk*: reset them around each
		// chunk's body run and save them by chunk index.
		w.lo, w.hi = math.MaxInt, -1
		w.runRange(lo, hi, st.simd, st.body)
		m.chunkB[ck] = addrIv{w.lo, w.hi}
	}

	// Arrival barrier: every member has run its chunks and published
	// its buffers (via the atomic add) before the mode is decided.
	if int(st.arrived.Add(1)) == m.gang.members {
		close(st.arrivedCh)
	}
	if member == 0 {
		waitDone(&st.arrived, int32(m.gang.members), st.arrivedCh)
		mode := m.decideMode()
		st.mode.Store(mode)
		close(st.modeCh)
	} else {
		waitMode(st)
	}
	if st.mode.Load() == gangModeFast {
		w.settleLocal(m, st.cnt)
	}
}

// growMembers grows every member's scalar buffers to the step's total
// entry count. Dynamic claiming can hand a member more chunks than it
// has ever held, which would otherwise ratchet its buffer capacity up
// mid-body, step after step; no member can hold more than the total.
func (m *Machine) growMembers(nw int) {
	var nr, nwr int
	for _, w := range m.pool[:nw] {
		nr += len(w.readAddrs)
		nwr += len(w.writes)
	}
	for _, w := range m.pool[:nw] {
		w.readAddrs = slices.Grow(w.readAddrs, nr-len(w.readAddrs))
		w.writes = slices.Grow(w.writes, nwr-len(w.writes))
	}
}

// waitMode blocks a helper until member 0 publishes the settlement
// mode: spin, yield, park.
func waitMode(st *gangStep) {
	for range spinBusy {
		if st.mode.Load() != gangModeUndecided {
			return
		}
	}
	for range spinYield {
		if st.mode.Load() != gangModeUndecided {
			return
		}
		runtime.Gosched()
	}
	<-st.modeCh
}

// decideMode runs on member 0 between the arrival barrier and the mode
// publish (the serial middle of the fused step): it leases the step's
// contention scratch and picks the settlement mode. The fast path
// requires that the chunks' touched intervals are pairwise disjoint, so
// no cell is shared across members.
func (m *Machine) decideMode() int32 {
	m.gstep.cnt = leaseCounters(m.gangSpan())
	if m.noFastPath || !chunksDisjoint(m.chunkB, m.ivScratch[:0], &m.ivScratch) {
		return gangModeSlow
	}
	m.fastSteps++
	m.gangFused.Add(1)
	return gangModeFast
}

// gangSpan returns one past the highest scalar address of a fused
// step: the chunk bounds cover every entry the bodies buffered.
func (m *Machine) gangSpan() int {
	hi := -1
	for _, b := range m.chunkB {
		hi = max(hi, b.hi)
	}
	return hi + 1
}

// addrIv is one touched-address interval, [lo, hi] inclusive (empty when
// hi < lo). Machine.chunkB holds one per dynamic chunk, indexed by chunk
// — not by member — so the fast-path disjointness proof is independent
// of the chunk schedule.
type addrIv struct{ lo, hi int }

// chunksDisjoint reports whether the chunks' touched-address intervals
// are pairwise disjoint: sort the nonempty intervals by lo and check
// adjacent overlap. Conservative — any two chunks sharing an address
// range send the step to the sharded path, even if the members that ran
// them coincide.
func chunksDisjoint(chunks []addrIv, iv []addrIv, keep *[]addrIv) bool {
	for _, b := range chunks {
		if b.hi >= b.lo {
			iv = append(iv, b)
		}
	}
	*keep = iv[:0] // retain grown capacity for the next step
	if len(iv) < 2 {
		return true
	}
	slicesSortIv(iv)
	for i := 1; i < len(iv); i++ {
		if iv[i].lo <= iv[i-1].hi {
			return false
		}
	}
	return true
}

// slicesSortIv sorts intervals by lo ascending (hi breaks ties, for
// determinism only — overlap detection does not depend on it).
func slicesSortIv(iv []addrIv) {
	// Insertion sort: chunk counts are a small multiple of the gang
	// width, so this beats the generic sort's overhead.
	for i := 1; i < len(iv); i++ {
		x := iv[i]
		j := i - 1
		for j >= 0 && (iv[j].lo > x.lo || (iv[j].lo == x.lo && iv[j].hi > x.hi)) {
			iv[j+1] = iv[j]
			j--
		}
		iv[j+1] = x
	}
}

// runPar executes f(0..n-1) across the gang (one extra dispatch) or
// inline when n == 1. It is the general fan-out the sharded settlement
// phases use.
func (m *Machine) runPar(n int, f func(shard int)) {
	if n == 1 {
		f(0)
		return
	}
	m.gangDispatches.Add(1)
	m.gangEnsure().dispatch(func(member int) {
		if member < n {
			f(member)
		}
	})
}

// ---------------------------------------------------------------------
// Adaptive serial cutoff.

// adaptState is the feedback half of the adaptive cutoff: an EWMA of
// measured serial and parallel ns/processor. Wall-clock only — it moves
// the serial cutoff, never the charged stats.
type adaptState struct {
	serialNs   float64 // EWMA ns per processor, serial steps
	parallelNs float64 // EWMA ns per processor, gang steps
	samples    int
	losses     int // consecutive gang steps slower than the serial estimate
}

// adaptive reports whether this machine measures step timings: only
// when a gang can actually engage and a test has not frozen the cutoff.
func (m *Machine) adaptive() bool { return !m.noAdapt && m.maxWorkers > 1 }

// adaptMinSample ignores timings of steps too small to measure
// meaningfully; adaptPeriod batches cutoff moves so one noisy sample
// never flips the route.
const (
	adaptMinSample = 128
	adaptPeriod    = 16
	adaptLossLimit = 8
)

func (m *Machine) observeSerial(p int, d time.Duration) {
	if p < adaptMinSample || d <= 0 {
		return
	}
	perProc := float64(d) / float64(p)
	if m.ad.serialNs == 0 {
		m.ad.serialNs = perProc
	} else {
		m.ad.serialNs += (perProc - m.ad.serialNs) / 8
	}
	m.ad.samples++
	if m.ad.samples%adaptPeriod == 0 {
		m.retune()
	}
}

func (m *Machine) observeParallel(p int, d time.Duration) {
	if p < adaptMinSample || d <= 0 {
		return
	}
	perProc := float64(d) / float64(p)
	if m.ad.parallelNs == 0 {
		m.ad.parallelNs = perProc
	} else {
		m.ad.parallelNs += (perProc - m.ad.parallelNs) / 8
	}
	// When the gang repeatedly loses to the serial estimate near the
	// cutoff (oversubscribed host, tiny bodies), raise the cutoff so
	// mid-size steps stop paying dispatch for nothing.
	if m.ad.serialNs > 0 && m.ad.parallelNs > m.ad.serialNs && p < 2*m.effCutoff {
		m.ad.losses++
		if m.ad.losses >= adaptLossLimit {
			m.ad.losses = 0
			m.effCutoff = min(2*m.effCutoff, maxSerialCutoff)
			m.cutoffRaises.Add(1)
		}
	} else {
		m.ad.losses = 0
	}
}

// retune moves the serial cutoff toward the measured serial/parallel
// break-even: when gang steps run at s_par ns/proc against s_ser serial,
// the gang wins above roughly p* where the dispatch overhead amortizes.
func (m *Machine) retune() {
	if m.ad.serialNs <= 0 || m.ad.parallelNs <= 0 {
		return
	}
	if m.ad.parallelNs < m.ad.serialNs {
		// The gang is winning at current sizes: try halving the cutoff
		// so mid-size steps parallelize too (floored, and re-raised by
		// the loss counter if that turns out to be a mistake).
		m.effCutoff = max(m.effCutoff/2, minSerialCutoff)
		m.cutoffLowers.Add(1)
	}
}
