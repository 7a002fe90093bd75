package machine

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"lowcontend/internal/xrand"
)

// This file implements the bulk access layer. Machine.Bulk opens a
// builder for a descriptor-only step: strided ranges (stride >= 1,
// perProc cells per processor) and index lists (one cell per processor)
// are recorded as compact descriptors instead of one buffer entry per
// element, and each descriptor names the range of processors that
// performs it, so a regular phase like "processor i copies cell src+i
// to dst+i" is two descriptors and no per-processor host loop at all.
// Descriptors are uncharged at recording: settlement derives the
// per-processor operation maximum (and the SIMD one-op rule) from a
// processor-interval sweep, proves descriptors disjoint from one
// another, and then charges contention, detects violations, and applies
// writes with O(1) bookkeeping per descriptor (data movement aside). A
// range or a strictly ascending list touches each of its cells from one
// processor, so a descriptor proven disjoint from the others has
// contention exactly one. Descriptors that may overlap — and lists that
// do not strictly ascend, which may repeat a cell — are expanded into
// the scalar element buffers in the order a ParDo body issuing the same
// accesses would have filled them, so the per-cell counters, the kappa
// arg-max, arbitration order, violations, traces, and hot cells are
// bit-identical to an element-by-element replay.
type bulkKind uint8

const (
	bulkRead    bulkKind = iota // count cells read
	bulkWrite                   // count cells written from vals
	bulkFill                    // count cells written with the constant fill
	bulkChargeC                 // charged local computation: fill ops on each of count processors
)

func (k bulkKind) cells() bool { return k <= bulkFill }

// bulkDesc is one recorded bulk access. For cell-bearing kinds the count
// cells are lo, lo+stride, ... (stride >= 1) or the explicit list
// off+idx[k] (stride == -1, perProc 1). Cell k belongs to processor
// proc + k/perProc. Charge kinds carry no cells: count processors
// starting at proc are charged fill operations each.
type bulkDesc struct {
	kind    bulkKind
	sorted  bool // idx strictly ascending (true for all strided descriptors)
	expand  bool // settlement decision: element expansion required
	lo, hi  int  // inclusive address interval
	stride  int  // >= 1 arithmetic; -1 explicit idx
	count   int
	proc    int // first processor
	perProc int // cells per processor (cell-bearing kinds)
	idx     []int
	off     int // added to every idx entry (base-relative lists; 0 otherwise)
	vals    []Word
	fill    Word // fill value, or the per-processor amount for charge kinds
	// Residue certificate (GatherMod/ScatterMod): every address is
	// congruent, modulo the power of two mod, to a value in the cyclic
	// interval [rlo, rlo+rlen). Recording verifies it on the positions
	// (every idx entry lies in [0, rlen) mod mod) and stores rlo = off
	// mod mod; mod == 0 when absent. Two certified lists with one
	// modulus and disjoint residue intervals cannot share a cell,
	// settling the overlap question in O(1) where a merge scan of the
	// index lists would be O(count).
	mod, rlo, rlen int
}

// nprocs returns how many processors the descriptor spans.
func (d *bulkDesc) nprocs() int {
	if !d.kind.cells() {
		return d.count
	}
	return (d.count + d.perProc - 1) / d.perProc
}

// addrAt returns the address of cell k.
func (d *bulkDesc) addrAt(k int) int {
	if d.stride >= 1 {
		return d.lo + k*d.stride
	}
	return d.off + d.idx[k]
}

// descsOverlap reports whether two cell-bearing descriptors can share a
// cell. It must never report false for descriptors that do share one;
// reporting true for disjoint descriptors only costs performance (the
// step expands them instead of settling analytically). Four proofs
// settle the pairs production steps issue: disjoint address intervals,
// two ranges of one stride in different residue classes, two certified
// lists with disjoint residue intervals, and a merge scan of two sorted
// lists. Any other pair — ranges of different strides, a list against
// a range, an unsorted list — is reported as overlapping.
func descsOverlap(a, b *bulkDesc) bool {
	if a.hi < b.lo || b.hi < a.lo {
		return false
	}
	if a.stride >= 1 && a.stride == b.stride {
		// Same stride and overlapping intervals: they collide iff they
		// lie in the same residue class.
		return (a.lo-b.lo)%a.stride == 0
	}
	if a.stride != -1 || b.stride != -1 || !a.sorted || !b.sorted {
		return true
	}
	if a.mod != 0 && a.mod == b.mod &&
		!cyclicIntervalsMeet(a.rlo, a.rlen, b.rlo, b.rlen, a.mod) {
		return false
	}
	return sortedListsIntersect(a.idx, a.off, b.idx, b.off)
}

// cyclicIntervalsMeet reports whether the cyclic intervals [r1, r1+l1)
// and [r2, r2+l2) modulo the power of two m share a residue.
func cyclicIntervalsMeet(r1, l1, r2, l2, m int) bool {
	return (r2-r1)&(m-1) < l1 || (r1-r2)&(m-1) < l2
}

// sortedListsIntersect merge-scans two strictly ascending lists, offset
// by aoff and boff.
func sortedListsIntersect(a []int, aoff int, b []int, boff int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := aoff+a[i], boff+b[j]
		switch {
		case x == y:
			return true
		case x < y:
			i++
		default:
			j++
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Recording: the Bulk builder.

// Bulk accumulates the descriptors of one whole step. It is obtained
// from Machine.Bulk and must be finished with Commit before any other
// step runs.
type Bulk struct {
	m      *Machine
	p      int
	label  string
	step   uint64
	active bool

	descs    []bulkDesc
	snapVals []Word
	scratch  []Word // Vals arena
	ret      []Word // ReadRange/Gather copy-out arena
	walks    []idxWalk

	// Settlement scratch, reused across steps: the operation sweep's
	// events, the per-kind overlap items, and the replay's descriptor
	// order and active set.
	ev             []bulkEvent
	rItems, wItems []bulkItem
	ord, act       []int32
}

// walkKey identifies an index list and the certificate it was walked
// against. A list is keyed by its first element's address and its
// length: it must stay unmodified until Commit, so within one step the
// same key always names the same contents.
type walkKey struct {
	first        *int
	n, mod, rlen int
}

// idxWalk is the memoised offset-free validation of one index list:
// ascent and residue certificate checked, and the list's relative
// bounds.
type idxWalk struct {
	key    walkKey
	lo, hi int
	asc    bool
}

// Bulk opens a descriptor-only step with p virtual processors: every
// access of the step is declared as a bulk descriptor naming the
// processors that perform it, with no per-processor body at all. The
// builder is owned by the machine (one open step at a time); Commit
// settles the step. Within one descriptor, the cells accessed by one
// processor are distinct by construction: ranges have stride >= 1, and
// an index list gives each processor one cell.
//
// Randomness for host-side decisions is available via Bulk.Rand, which
// replays exactly the stream Ctx.Rand would hand the same processor in
// the equivalent ParDo step.
func (m *Machine) Bulk(p int, label string) *Bulk {
	b := &m.bulkB
	if b.active {
		panic("machine: Bulk step already open (Commit it first)")
	}
	b.m = m
	b.p = p
	b.label = label
	b.step = m.stepIndex + 1
	b.active = true
	b.descs = b.descs[:0]
	b.snapVals = b.snapVals[:0]
	b.scratch = b.scratch[:0]
	b.ret = b.ret[:0]
	b.walks = b.walks[:0]
	return b
}

func (b *Bulk) checkShape(n, stride, procLo, perProc int) {
	if n < 0 || stride < 1 || procLo < 0 || perProc < 1 {
		panic(fmt.Sprintf("machine: bulk range n=%d stride=%d procLo=%d perProc=%d", n, stride, procLo, perProc))
	}
}

// ReadRange declares that processors procLo, procLo+1, ... read the n
// cells lo, lo+stride, ..., perProc consecutive cells per processor.
// It returns the cells' beginning-of-step values (a shared-memory view
// for stride 1 — valid because writes apply only at Commit — or a
// buffer valid until the next Bulk).
func (b *Bulk) ReadRange(lo, n, stride, procLo, perProc int) []Word {
	b.checkShape(n, stride, procLo, perProc)
	if n == 0 {
		return nil
	}
	m := b.m
	hi := lo + (n-1)*stride
	m.checkAddr(lo)
	m.checkAddr(hi)
	b.descs = append(b.descs, bulkDesc{
		kind: bulkRead, sorted: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: procLo, perProc: perProc,
	})
	if stride == 1 {
		return m.mem[lo : lo+n : lo+n]
	}
	out := b.retSlice(n)
	for k := range out {
		out[k] = m.mem[lo+k*stride]
	}
	return out
}

// WriteRange declares that processors procLo, procLo+1, ... write
// vals[k] to cell lo + k*stride, perProc cells per processor. vals must
// stay unmodified until Commit (it is snapshotted only if it aliases
// shared memory, so a view returned by ReadRange is safe to pass).
func (b *Bulk) WriteRange(lo, n, stride, procLo, perProc int, vals []Word) {
	b.checkShape(n, stride, procLo, perProc)
	if len(vals) != n {
		panic(fmt.Sprintf("machine: bulk WriteRange of %d cells with %d vals", n, len(vals)))
	}
	if n == 0 {
		return
	}
	m := b.m
	hi := lo + (n-1)*stride
	m.checkAddr(lo)
	m.checkAddr(hi)
	b.descs = append(b.descs, bulkDesc{
		kind: bulkWrite, sorted: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: procLo, perProc: perProc,
		vals: b.snapIfMem(vals),
	})
}

// FillRange is WriteRange with a constant value and no vals slice.
func (b *Bulk) FillRange(lo, n, stride, procLo, perProc int, v Word) {
	b.checkShape(n, stride, procLo, perProc)
	if n == 0 {
		return
	}
	m := b.m
	hi := lo + (n-1)*stride
	m.checkAddr(lo)
	m.checkAddr(hi)
	b.descs = append(b.descs, bulkDesc{
		kind: bulkFill, sorted: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: procLo, perProc: perProc, fill: v,
	})
}

// Gather declares that processor procLo+k reads cell idx[k], and
// returns the cells' values (buffer valid until the next Bulk). idx must
// stay unmodified until Commit. A list may repeat a cell — several
// processors reading it, a concurrent read the step charges as such.
func (b *Bulk) Gather(idx []int, procLo int) []Word {
	return b.gather(0, idx, procLo, 0, 0)
}

// GatherMod is Gather over the base-relative list base+pos[k], with a
// residue certificate: the caller asserts every pos[k] is congruent,
// modulo mod (a power of two), to a value in [0, rlen), so every
// address lies in the cyclic residue interval [base, base+rlen) mod
// mod. The certificate is verified during recording (a violating
// address panics) and lets settlement prove two certified lists with
// one modulus and disjoint residue intervals cell-disjoint in O(1)
// instead of merge-scanning them. One pos list may back any number of
// descriptors of a step at different bases; it is walked once per step.
func (b *Bulk) GatherMod(base int, pos []int, procLo, mod, rlen int) []Word {
	checkResidueCert(mod, rlen)
	return b.gather(base, pos, procLo, mod, rlen)
}

func (b *Bulk) gather(base int, idx []int, procLo, mod, rlen int) []Word {
	b.checkShape(len(idx), 1, procLo, 1)
	n := len(idx)
	if n == 0 {
		return nil
	}
	d := b.listDesc(bulkRead, base, idx, procLo, mod, rlen)
	out := b.retSlice(n)
	mem := b.m.mem
	for k, a := range idx {
		out[k] = mem[base+a]
	}
	b.descs = append(b.descs, d)
	return out
}

// Scatter declares that processor procLo+k writes vals[k] to cell
// idx[k]. idx and vals must stay unmodified until Commit (vals is
// snapshotted if it aliases shared memory). Processors writing one cell
// arbitrate to the highest index, as always.
func (b *Bulk) Scatter(idx []int, procLo int, vals []Word) {
	b.scatter(0, idx, procLo, vals, 0, 0)
}

// ScatterMod is Scatter over the base-relative list base+pos[k] with a
// residue certificate on the positions; see GatherMod.
func (b *Bulk) ScatterMod(base int, pos []int, procLo int, vals []Word, mod, rlen int) {
	checkResidueCert(mod, rlen)
	b.scatter(base, pos, procLo, vals, mod, rlen)
}

func (b *Bulk) scatter(base int, idx []int, procLo int, vals []Word, mod, rlen int) {
	b.checkShape(len(idx), 1, procLo, 1)
	n := len(idx)
	if len(vals) != n {
		panic(fmt.Sprintf("machine: bulk Scatter with %d indices, %d vals", n, len(vals)))
	}
	if n == 0 {
		return
	}
	d := b.listDesc(bulkWrite, base, idx, procLo, mod, rlen)
	d.vals = b.snapIfMem(vals)
	b.descs = append(b.descs, d)
}

// listDesc validates the non-empty index list base+idx[k] and returns
// its descriptor, payload unset. Each call range-checks the list's own
// addresses — only the two ends of an ascending list, which bound it,
// and every address otherwise — while the offset-free walk (ascent,
// residue certificate, relative bounds) is memoised for the rest of the
// step, so a list shared by several descriptors is walked once.
func (b *Bulk) listDesc(kind bulkKind, base int, idx []int, procLo, mod, rlen int) bulkDesc {
	key := walkKey{&idx[0], len(idx), mod, rlen}
	var wk idxWalk
	found := false
	for i := range b.walks {
		if b.walks[i].key == key {
			wk, found = b.walks[i], true
			break
		}
	}
	if !found {
		wk = walkIdx(key, base, idx)
		b.walks = append(b.walks, wk)
	}
	m := b.m
	if wk.asc {
		m.checkAddr(base + wk.lo)
		m.checkAddr(base + wk.hi)
	} else {
		for _, a := range idx {
			m.checkAddr(base + a)
		}
	}
	d := bulkDesc{
		kind: kind, sorted: wk.asc,
		lo: base + wk.lo, hi: base + wk.hi, stride: -1, count: len(idx),
		proc: procLo, perProc: 1, idx: idx, off: base,
		mod: mod, rlen: rlen,
	}
	if mod != 0 {
		d.rlo = base & (mod - 1)
	}
	return d
}

// walkIdx is the offset-free walk of an index list: it checks the
// residue certificate (when key.mod != 0) and returns the list's
// relative bounds and ascent. base only names addresses in panics.
func walkIdx(key walkKey, base int, idx []int) idxWalk {
	mod, rlen := key.mod, key.rlen
	asc := true
	prev := idx[0]
	for k, a := range idx {
		if mod != 0 && a&(mod-1) >= rlen {
			panicResidueCert(base+a, mod, base&(mod-1), rlen)
		}
		if k > 0 && a <= prev {
			asc = false
		}
		prev = a
	}
	if asc {
		return idxWalk{key: key, lo: idx[0], hi: idx[len(idx)-1], asc: true}
	}
	return idxWalk{key: key, lo: slices.Min(idx), hi: slices.Max(idx)}
}

// checkResidueCert validates a GatherMod/ScatterMod certificate shape.
func checkResidueCert(mod, rlen int) {
	if mod <= 0 || mod&(mod-1) != 0 || rlen <= 0 || rlen > mod {
		panic(fmt.Sprintf("machine: bulk residue certificate mod=%d rlen=%d", mod, rlen))
	}
}

func panicResidueCert(a, mod, rlo, rlen int) {
	panic(fmt.Sprintf("machine: bulk index %d breaks residue certificate [%d,%d) mod %d",
		a, rlo, rlo+rlen, mod))
}

// Compute charges amount local RAM operations to each of nprocs
// processors starting at procLo (Ctx.Compute, descriptor form).
func (b *Bulk) Compute(procLo, nprocs int, amount int64) {
	if procLo < 0 || nprocs < 0 || amount < 0 {
		panic(fmt.Sprintf("machine: bulk charge procLo=%d nprocs=%d amount=%d", procLo, nprocs, amount))
	}
	if nprocs == 0 || amount == 0 {
		return
	}
	b.descs = append(b.descs, bulkDesc{
		kind: bulkChargeC, lo: 0, hi: -1, count: nprocs, proc: procLo, fill: amount,
	})
}

// Vals returns an n-word scratch slice from the builder's arena for
// assembling descriptor payloads without allocating. Contents are
// unspecified; the slice is valid until the next Bulk.
func (b *Bulk) Vals(n int) []Word {
	if n < 0 {
		panic("machine: Bulk.Vals with negative size")
	}
	off := len(b.scratch)
	need := off + n
	if cap(b.scratch) < need {
		nb := make([]Word, need, max(need, 2*cap(b.scratch)))
		copy(nb, b.scratch)
		b.scratch = nb
	} else {
		b.scratch = b.scratch[:need]
	}
	return b.scratch[off:need:need]
}

// Rand returns processor proc's private random stream for this step —
// the same stream Ctx.Rand yields in an equivalent ParDo — so host-side
// descriptor construction can consume processor randomness.
func (b *Bulk) Rand(proc int) xrand.Stream {
	return xrand.StreamFrom(xrand.Mix3(b.m.seed, b.step, uint64(proc)))
}

func (b *Bulk) retSlice(n int) []Word {
	off := len(b.ret)
	need := off + n
	if cap(b.ret) < need {
		nb := make([]Word, need, max(need, 2*cap(b.ret)))
		copy(nb, b.ret)
		b.ret = nb
	} else {
		b.ret = b.ret[:need]
	}
	return b.ret[off:need:need]
}

// snapIfMem snapshots vals into the builder arena when it aliases
// shared memory (Commit applies writes to memory, and a payload read
// from memory must keep its beginning-of-step values).
func (b *Bulk) snapIfMem(vals []Word) []Word {
	m := b.m
	if len(vals) == 0 || len(m.mem) == 0 {
		return vals
	}
	v0 := uintptr(unsafe.Pointer(&vals[0]))
	m0 := uintptr(unsafe.Pointer(&m.mem[0]))
	mEnd := m0 + uintptr(len(m.mem))*unsafe.Sizeof(Word(0))
	if v0 < m0 || v0 >= mEnd {
		return vals
	}
	off := len(b.snapVals)
	b.snapVals = append(b.snapVals, vals...)
	return b.snapVals[off : off+len(vals) : off+len(vals)]
}

// Commit executes the accumulated descriptors as one synchronous step:
// contention is counted, violations detected, writes applied, and the
// step charged exactly as if a ParDo body had issued the same accesses.
func (b *Bulk) Commit() error {
	m := b.m
	if !b.active {
		panic("machine: Commit on a Bulk that is not open")
	}
	b.active = false
	if m.err != nil {
		return m.err
	}
	if b.p <= 0 {
		return fmt.Errorf("machine: Bulk with %d processors", b.p)
	}
	if m.stepIndex+1 != b.step {
		panic("machine: steps ran while a Bulk was open")
	}
	for i := range b.descs {
		d := &b.descs[i]
		if last := d.proc + d.nprocs(); last > b.p {
			panic(fmt.Sprintf("machine: bulk descriptor spans processors [%d,%d) of %d", d.proc, last, b.p))
		}
	}
	m.stepIndex++
	if len(m.pool) < 1 {
		m.pool = append(m.pool, getWorker())
	}
	w := m.pool[0]
	w.reset()
	var bs bulkSettle
	b.settleBulk(w, &bs)
	return m.finishStep(b.p, b.label, &bs)
}

// ---------------------------------------------------------------------
// Settlement.

// bulkEvent is one processor-interval delta for the per-processor
// operation sweep over the descriptors.
type bulkEvent struct {
	proc       int
	dr, dw, dc int64
}

// bulkItem is one entry of the per-kind disjointness check: a
// descriptor with its address interval copied inline for the sort.
type bulkItem struct {
	d      *bulkDesc
	lo, hi int
}

// bulkSettle carries the bulk layer's contributions into the step's
// accounting merge.
type bulkSettle struct {
	maxOps, maxR, maxW      int64
	maxRAddr, maxWAddr      int
	reads, writes, computes int64
	simdViol                bool
	simdCount               int64
	simdProc                int // lowest processor violating the SIMD rule
}

// settleBulk processes the step's descriptors: it derives their
// per-processor operation load, decides which descriptors settle
// analytically and which must expand into w's (empty) scalar buffers,
// applies the analytic writes, and performs the expansions. It runs
// before the scalar settlement, so expanded elements flow through the
// per-cell counters exactly like scalar code.
func (b *Bulk) settleBulk(w *worker, bs *bulkSettle) {
	m := b.m
	bs.maxRAddr, bs.maxWAddr = -1, -1
	bs.simdProc = -1
	if len(b.descs) == 0 {
		return
	}
	m.bulkDescs.Add(int64(len(b.descs)))

	// Per-processor operation sweep. Each descriptor contributes a flat
	// interval of processors doing perProc ops, plus a possibly lighter
	// last processor.
	ev := b.ev[:0]
	for i := range b.descs {
		d := &b.descs[i]
		var dr, dw, dc int64
		switch d.kind {
		case bulkRead:
			bs.reads += int64(d.count)
			dr = int64(d.perProc)
		case bulkWrite, bulkFill:
			bs.writes += int64(d.count)
			dw = int64(d.perProc)
		case bulkChargeC:
			bs.computes += int64(d.count) * d.fill
			dc = d.fill
		}
		np := d.nprocs()
		full := np
		if d.kind.cells() {
			if rem := d.count - (np-1)*d.perProc; rem != d.perProc {
				// Lighter last processor: split the interval.
				full = np - 1
				r2, w2, c2 := dr, dw, dc
				if dr > 0 {
					r2 = int64(rem)
				}
				if dw > 0 {
					w2 = int64(rem)
				}
				ev = append(ev,
					bulkEvent{d.proc + full, r2, w2, c2},
					bulkEvent{d.proc + np, -r2, -w2, -c2})
			}
		}
		if full > 0 {
			ev = append(ev,
				bulkEvent{d.proc, dr, dw, dc},
				bulkEvent{d.proc + full, -dr, -dw, -dc})
		}
	}
	slices.SortFunc(ev, func(a, b bulkEvent) int { return cmp.Compare(a.proc, b.proc) })
	simd := m.model.SIMD()
	var r, wr, c int64
	for i := 0; i < len(ev); {
		p := ev[i].proc
		for i < len(ev) && ev[i].proc == p {
			r += ev[i].dr
			wr += ev[i].dw
			c += ev[i].dc
			i++
		}
		if mo := max(r, wr, c); mo > 0 {
			bs.maxOps = max(bs.maxOps, mo)
			if simd && mo > 1 && !bs.simdViol {
				// Ascending sweep: this is the lowest-indexed processor
				// exceeding the SIMD one-op rule, exactly the processor
				// scalar replay would report.
				bs.simdViol = true
				bs.simdCount = mo
				bs.simdProc = p
			}
		}
	}
	b.ev = ev[:0]

	// Disposition: a descriptor settles analytically only when its
	// cells provably meet no other descriptor of the same access kind.
	// Unsorted index lists and profiled steps (hot-cell attribution
	// needs real counters) expand unconditionally.
	expandAll := m.hotK > 0 || m.noBulkFast
	rItems := b.rItems[:0]
	wItems := b.wItems[:0]
	for i := range b.descs {
		d := &b.descs[i]
		if !d.kind.cells() {
			continue
		}
		d.expand = expandAll || !d.sorted
		if d.kind == bulkRead {
			rItems = append(rItems, bulkItem{d, d.lo, d.hi})
		} else {
			wItems = append(wItems, bulkItem{d, d.lo, d.hi})
		}
	}
	markOverlaps(rItems)
	markOverlaps(wItems)
	b.rItems, b.wItems = rItems[:0], wItems[:0]

	// Analytic settlement of the surviving descriptors: each of their
	// cells is touched by exactly one processor, so each kind's maximum
	// is contention one at its smallest analytic address (count ties
	// break toward the smallest address, as in the scalar settlement,
	// so the merged arg-max names the same cell whichever side reached
	// the maximum first). Writes apply directly.
	expand := false
	for i := range b.descs {
		d := &b.descs[i]
		if !d.kind.cells() {
			continue
		}
		if d.expand {
			expand = true
			m.bulkExpanded.Add(1)
			continue
		}
		if d.kind == bulkRead {
			bs.maxR, bs.maxRAddr = 1, lowerAddr(bs.maxRAddr, d.lo)
		} else {
			bs.maxW, bs.maxWAddr = 1, lowerAddr(bs.maxWAddr, d.lo)
			m.applyDesc(d)
		}
	}
	if expand {
		b.buildReplay(w)
	}
}

// lowerAddr returns the smaller of the arg-max address cur (-1 when
// unset) and lo.
func lowerAddr(cur, lo int) int {
	if cur < 0 {
		return lo
	}
	return min(cur, lo)
}

// markOverlaps mutually marks for expansion every pair of descriptors of
// one access kind that may share a cell. One pass suffices — expansion
// routes a descriptor's cells through the same counters scalar cells
// use, so an expanded descriptor endangers only descriptors it actually
// shares cells with, and those were marked by their own pairwise test.
func markOverlaps(items []bulkItem) {
	// Sweep in address order: after sorting by lo, the partners of
	// items[i] are exactly the following items whose lo is within
	// items[i]'s interval, so disjoint steps cost O(d log d) rather
	// than O(d^2) pair enumeration.
	slices.SortFunc(items, func(x, y bulkItem) int { return x.lo - y.lo })
	for i := range items {
		a := items[i].d
		for j := i + 1; j < len(items) && items[j].lo <= items[i].hi; j++ {
			if bd := items[j].d; descsOverlap(a, bd) {
				a.expand = true
				bd.expand = true
			}
		}
	}
}

// applyDesc applies an analytically settled write descriptor to memory
// and raises the dirty mark over it (descriptor settlement is serial).
// hi bounds every cell of every descriptor shape, index lists included:
// recording takes it from the list's maximum, as markOverlaps requires.
func (m *Machine) applyDesc(d *bulkDesc) {
	m.dirty = max(m.dirty, d.hi+1)
	switch {
	case d.kind == bulkFill:
		if d.stride == 1 {
			base := d.lo
			for k := range d.count {
				m.mem[base+k] = d.fill
			}
		} else {
			for k := 0; k < d.count; k++ {
				m.mem[d.lo+k*d.stride] = d.fill
			}
		}
	case d.stride == 1:
		copy(m.mem[d.lo:d.lo+d.count], d.vals)
	case d.stride > 1:
		for k := 0; k < d.count; k++ {
			m.mem[d.lo+k*d.stride] = d.vals[k]
		}
	default:
		mem, off, vals := m.mem, d.off, d.vals[:len(d.idx)]
		for k, a := range d.idx {
			mem[off+a] = vals[k]
		}
	}
}

// buildReplay expands the step's marked descriptors into w's empty
// scalar buffers in processor-major order — for each processor in
// ascending index order, its cells in issue order — which is exactly the
// order the equivalent ParDo body would have buffered them in, including
// the per-processor dedupe: a processor reaching one cell through
// several descriptors records one read entry, and its later writes
// overwrite the buffered value in place. A sweep
// over the descriptors sorted by first processor keeps the set spanning
// the current processor, so the cost is the cells replayed, not
// processors times descriptors.
func (b *Bulk) buildReplay(w *worker) {
	descs := b.descs
	ord := b.ord[:0]
	for i := range descs {
		if d := &descs[i]; d.expand && d.kind.cells() {
			ord = append(ord, int32(i))
		}
	}
	slices.SortFunc(ord, func(x, y int32) int {
		return cmp.Or(cmp.Compare(descs[x].proc, descs[y].proc), cmp.Compare(x, y))
	})
	act := b.act[:0] // descriptors spanning processor p, in issue order
	next := 0
	for p := 0; next < len(ord) || len(act) > 0; p++ {
		if len(act) == 0 {
			p = descs[ord[next]].proc
		}
		for ; next < len(ord) && descs[ord[next]].proc == p; next++ {
			j, _ := slices.BinarySearch(act, ord[next])
			act = slices.Insert(act, j, ord[next])
		}
		rs, ws := len(w.readAddrs), len(w.writes)
		for _, i := range act {
			w.replayProc(&descs[i], p, rs, ws)
		}
		keep := act[:0]
		for _, i := range act {
			if d := &descs[i]; p+1 < d.proc+d.nprocs() {
				keep = append(keep, i)
			}
		}
		act = keep
	}
	b.ord, b.act = ord[:0], act[:0]
}

// replayProc appends processor p's cells of descriptor d to the scalar
// buffers, whose entries for p begin at rs and ws. One processor's cells
// within a descriptor are distinct, so only the entries earlier
// descriptors buffered for p need the dedupe scan.
func (w *worker) replayProc(d *bulkDesc, p, rs, ws int) {
	k0 := (p - d.proc) * d.perProc
	k1 := min(d.count, k0+d.perProc)
	if d.kind == bulkRead {
		prev := w.readAddrs[rs:]
		for k := k0; k < k1; k++ {
			if a := d.addrAt(k); !slices.Contains(prev, a) {
				w.readAddrs = append(w.readAddrs, a)
				w.touch(a)
			}
		}
		return
	}
	we := len(w.writes)
	for k := k0; k < k1; k++ {
		a, v := d.addrAt(k), d.fill
		if d.kind == bulkWrite {
			v = d.vals[k]
		}
		j := ws
		for j < we && w.writes[j].addr != a {
			j++
		}
		if j < we {
			w.writes[j].val = v
			continue
		}
		w.writes = append(w.writes, writeOp{addr: a, val: v, proc: int32(p)})
		w.touch(a)
	}
}
