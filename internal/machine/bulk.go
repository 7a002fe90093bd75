package machine

import (
	"cmp"
	"fmt"
	"math"
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
// cells are lo, lo+stride, ... (stride >= 1) or the explicit list idx[k]
// (stride == -1, perProc 1). Cell k belongs to processor proc +
// k/perProc. Charge kinds carry no cells: count processors starting at
// proc are charged fill operations each.
type bulkDesc struct {
	kind    bulkKind
	sorted  bool // idx strictly ascending (true for all strided descriptors)
	expand  bool // settlement decision: element expansion required
	lo, hi  int  // inclusive address interval
	stride  int  // >= 1 arithmetic; -1 explicit idx
	count   int
	proc    int // first processor
	end     int // one past the last processor, set at Commit
	perProc int // cells per processor (cell-bearing kinds)
	idx     []int
	vals    []Word
	fill    Word // fill value, or the per-processor amount for charge kinds
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
	return d.idx[k]
}

// descsOverlap reports whether two cell-bearing descriptors can share a
// cell. It must never report false for descriptors that do share one;
// reporting true for disjoint descriptors only costs performance (the
// step expands them instead of settling analytically). Three proofs
// settle the pairs production steps issue: disjoint address intervals,
// two ranges of one stride in different residue classes, and a merge
// scan of two sorted lists. Any other pair — ranges of different
// strides, a list against a range, an unsorted list — is reported as
// overlapping.
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
	return sortedListsIntersect(a.idx, b.idx)
}

// sortedListsIntersect merge-scans two strictly ascending lists.
func sortedListsIntersect(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
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
	m     *Machine
	p     int
	label string
	step  uint64
	// stepKey is xrand.StepKey of the seed and step, so Rand costs one
	// mixer call per processor.
	stepKey uint64
	active  bool

	descs    []bulkDesc
	snapVals []Word
	scratch  []Word // Vals arena
	ret      []Word // ReadRange/Gather copy-out arena

	// Settlement scratch, reused across steps: the operation sweep's
	// events, the per-kind overlap items, and the replay's descriptor
	// order and active set.
	ev             []bulkEvent
	rItems, wItems []bulkItem
	ord, act       []int32
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
	b.stepKey = xrand.StepKey(m.seed, b.step)
	b.active = true
	b.descs = b.descs[:0]
	b.snapVals = b.snapVals[:0]
	b.scratch = b.scratch[:0]
	b.ret = b.ret[:0]
	return b
}

// ReadRange declares that processors procLo, procLo+1, ... read the n
// cells lo, lo+stride, ..., perProc consecutive cells per processor.
// It returns the cells' beginning-of-step values (a shared-memory view
// for stride 1 — valid because writes apply only at Commit — or a
// buffer valid until the next Bulk).
func (b *Bulk) ReadRange(lo, n, stride, procLo, perProc int) []Word {
	if !b.rangeDesc(bulkRead, lo, n, stride, procLo, perProc, nil, 0) {
		return nil
	}
	mem := b.m.mem
	if stride == 1 {
		return mem[lo : lo+n : lo+n]
	}
	out := arena(&b.ret, n)
	for k := range out {
		out[k] = mem[lo+k*stride]
	}
	return out
}

// WriteRange declares that processors procLo, procLo+1, ... write
// vals[k] to cell lo + k*stride, perProc cells per processor. vals must
// stay unmodified until Commit (it is snapshotted only if it aliases
// shared memory, so a view returned by ReadRange is safe to pass).
func (b *Bulk) WriteRange(lo, n, stride, procLo, perProc int, vals []Word) {
	if len(vals) != n {
		panic(fmt.Sprintf("machine: bulk WriteRange of %d cells with %d vals", n, len(vals)))
	}
	b.rangeDesc(bulkWrite, lo, n, stride, procLo, perProc, vals, 0)
}

// FillRange is WriteRange with a constant value and no vals slice.
func (b *Bulk) FillRange(lo, n, stride, procLo, perProc int, v Word) {
	b.rangeDesc(bulkFill, lo, n, stride, procLo, perProc, nil, v)
}

// rangeDesc validates and records one range descriptor, and reports
// whether it has any cells (an empty range records nothing).
func (b *Bulk) rangeDesc(kind bulkKind, lo, n, stride, procLo, perProc int, vals []Word, fill Word) bool {
	if n < 0 || stride < 1 || procLo < 0 || perProc < 1 {
		panic(fmt.Sprintf("machine: bulk range n=%d stride=%d procLo=%d perProc=%d", n, stride, procLo, perProc))
	}
	if n == 0 {
		return false
	}
	hi := lo + (n-1)*stride
	b.m.checkAddr(lo)
	b.m.checkAddr(hi)
	b.descs = append(b.descs, bulkDesc{
		kind: kind, sorted: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: procLo, perProc: perProc,
		vals: b.snapIfMem(vals), fill: fill,
	})
	return true
}

// Gather declares that processor procLo+k reads cell idx[k], and
// returns the cells' values (buffer valid until the next Bulk). idx must
// stay unmodified until Commit. A list may repeat a cell — several
// processors reading it, a concurrent read the step charges as such.
func (b *Bulk) Gather(idx []int, procLo int) []Word {
	if !b.listDesc(bulkRead, idx, procLo, nil) {
		return nil
	}
	out := arena(&b.ret, len(idx))
	mem := b.m.mem
	for k, a := range idx {
		out[k] = mem[a]
	}
	return out
}

// Scatter declares that processor procLo+k writes vals[k] to cell
// idx[k]. idx and vals must stay unmodified until Commit (vals is
// snapshotted if it aliases shared memory). Processors writing one cell
// arbitrate to the highest index, as always.
func (b *Bulk) Scatter(idx []int, procLo int, vals []Word) {
	if len(vals) != len(idx) {
		panic(fmt.Sprintf("machine: bulk Scatter with %d indices, %d vals", len(idx), len(vals)))
	}
	b.listDesc(bulkWrite, idx, procLo, vals)
}

// listDesc validates and records the descriptor of the index list idx,
// and reports whether it has any cells (an empty list records nothing).
// A list must stay unmodified until Commit, so a list an earlier
// descriptor of the step already walked (same first element and length)
// takes that walk's ascent and bounds; otherwise it is walked here:
// every address is range-checked (only the two ends of an ascending
// list, which bound it).
func (b *Bulk) listDesc(kind bulkKind, idx []int, procLo int, vals []Word) bool {
	if procLo < 0 {
		panic(fmt.Sprintf("machine: bulk list procLo=%d", procLo))
	}
	if len(idx) == 0 {
		return false
	}
	d := bulkDesc{
		kind: kind, stride: -1, count: len(idx),
		proc: procLo, perProc: 1, idx: idx, vals: b.snapIfMem(vals),
	}
	walked := -1
	for i := range b.descs {
		if e := &b.descs[i]; e.stride == -1 && len(e.idx) == len(idx) && &e.idx[0] == &idx[0] {
			walked = i
		}
	}
	if walked >= 0 {
		d.sorted, d.lo, d.hi = b.descs[walked].sorted, b.descs[walked].lo, b.descs[walked].hi
	} else {
		d.sorted, d.lo, d.hi = true, idx[0], idx[len(idx)-1]
		for k := 1; k < len(idx) && d.sorted; k++ {
			d.sorted = idx[k] > idx[k-1]
		}
		if !d.sorted {
			for _, a := range idx {
				b.m.checkAddr(a)
			}
			d.lo, d.hi = slices.Min(idx), slices.Max(idx)
		}
		b.m.checkAddr(d.lo)
		b.m.checkAddr(d.hi)
	}
	b.descs = append(b.descs, d)
	return true
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
	return arena(&b.scratch, n)
}

// Rand returns processor proc's private random stream for this step —
// the same stream Ctx.Rand yields in an equivalent ParDo — so host-side
// descriptor construction can consume processor randomness.
func (b *Bulk) Rand(proc int) xrand.Stream {
	return xrand.StreamFrom(xrand.ProcKey(b.stepKey, uint64(proc)))
}

// arena carves n words off the end of the arena *a, growing it by
// doubling; slices carved earlier keep their contents.
func arena(a *[]Word, n int) []Word {
	off := len(*a)
	need := off + n
	if cap(*a) < need {
		*a = append(make([]Word, 0, max(need, 2*cap(*a))), *a...)
	}
	*a = (*a)[:need]
	return (*a)[off:need:need]
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
		if d.end = d.proc + d.nprocs(); d.end > b.p {
			panic(fmt.Sprintf("machine: bulk descriptor spans processors [%d,%d) of %d", d.proc, d.end, b.p))
		}
	}
	m.stepIndex++
	w := m.worker()
	w.reset()
	b.settleBulk(w)
	return m.finishStep(b.p, b.label)
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

// settleBulk processes the step's descriptors into w's accounting: it
// derives their per-processor operation load, decides which descriptors
// settle analytically and which must expand into w's (empty) scalar
// buffers, applies the analytic writes, and performs the expansions. It
// runs before the scalar settlement, so expanded elements flow through
// the per-cell counters exactly like scalar code, and their maxima meet
// the analytic ones under the scalar tie rule.
func (b *Bulk) settleBulk(w *worker) {
	m := b.m
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
			w.reads += int64(d.count)
			dr = int64(d.perProc)
		case bulkWrite, bulkFill:
			w.writesN += int64(d.count)
			dw = int64(d.perProc)
		case bulkChargeC:
			w.computes += int64(d.count) * d.fill
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
			w.maxOps = max(w.maxOps, mo)
			if simd && mo > 1 && !w.simdViol {
				// Ascending sweep: this is the lowest-indexed processor
				// exceeding the SIMD one-op rule, exactly the processor
				// scalar replay would report.
				w.simdViol = true
				w.simdCount = mo
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
			w.maxR, w.maxRAddr = 1, lowerAddr(w.maxRAddr, d.lo)
		} else {
			w.maxW, w.maxWAddr = 1, lowerAddr(w.maxWAddr, d.lo)
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
		mem, vals := m.mem, d.vals[:len(d.idx)]
		for k, a := range d.idx {
			mem[a] = vals[k]
		}
	}
}

// buildReplay expands the step's marked descriptors into w's empty
// scalar buffers in processor-major order — for each processor in
// ascending index order, its cells in issue order — which is exactly the
// order the equivalent ParDo body would have buffered them in, including
// the per-processor dedupe: a processor reaching one cell through
// several descriptors records one read entry, and its later writes
// overwrite the buffered value in place. Reads and writes fill separate
// buffers and dedupe only against their own kind, so each kind is
// replayed on its own (replayRuns). Every cell of an expanded descriptor
// is buffered or deduped against an equal address, so the descriptors'
// interval tops bound the buffered addresses exactly.
func (b *Bulk) buildReplay(w *worker) {
	descs := b.descs
	ord := b.ord[:0]
	nr := 0 // read descriptors
	for i := range descs {
		if d := &descs[i]; d.expand && d.kind.cells() {
			ord = append(ord, int32(i))
			nr += b2i(d.kind == bulkRead)
			w.touch(d.hi)
		}
	}
	// Reads first, then writes; each kind by first processor, then in
	// issue order.
	slices.SortFunc(ord, func(x, y int32) int {
		dx, dy := &descs[x], &descs[y]
		return cmp.Or(cmp.Compare(b2i(dx.kind != bulkRead), b2i(dy.kind != bulkRead)),
			cmp.Compare(dx.proc, dy.proc), cmp.Compare(x, y))
	})
	b.replayRuns(w, ord[:nr])
	b.replayRuns(w, ord[nr:])
	b.ord = ord[:0]
}

// replayRuns replays the descriptors ord, all of one access kind and
// sorted by first processor, run by run: a run is a span of processors
// over which the set of descriptors spanning them does not change. A run
// spanned by one descriptor appends that descriptor's cells for the
// whole run in one loop: its cells are already in processor-major order,
// and one processor's cells within a descriptor are distinct, so there
// is nothing to dedupe. A run spanned by several interleaves them
// processor by processor, with the dedupe.
func (b *Bulk) replayRuns(w *worker, ord []int32) {
	descs := b.descs
	act := b.act[:0] // descriptors spanning the run, in issue order
	next := 0
	for p := 0; next < len(ord) || len(act) > 0; {
		if len(act) == 0 {
			p = descs[ord[next]].proc
		}
		for ; next < len(ord) && descs[ord[next]].proc == p; next++ {
			j, _ := slices.BinarySearch(act, ord[next])
			act = slices.Insert(act, j, ord[next])
		}
		// The run ends where a spanning descriptor ends or the next
		// one starts.
		q := math.MaxInt
		if next < len(ord) {
			q = descs[ord[next]].proc
		}
		for _, i := range act {
			q = min(q, descs[i].end)
		}
		if len(act) == 1 {
			w.replayRun(&descs[act[0]], p, q)
		} else {
			for ; p < q; p++ {
				rs, ws := len(w.readAddrs), len(w.writes)
				for _, i := range act {
					w.replayProc(&descs[i], p, rs, ws)
				}
			}
		}
		p = q
		keep := act[:0]
		for _, i := range act {
			if descs[i].end > q {
				keep = append(keep, i)
			}
		}
		act = keep
	}
	b.act = act[:0]
}

// replayRun appends the cells of descriptor d's processors [p, q) to the
// scalar buffers in one pass.
func (w *worker) replayRun(d *bulkDesc, p, q int) {
	k0 := (p - d.proc) * d.perProc
	k1 := min(d.count, (q-d.proc)*d.perProc)
	if d.kind == bulkRead {
		n := len(w.readAddrs)
		w.readAddrs = slices.Grow(w.readAddrs, k1-k0)[:n+k1-k0]
		dst := w.readAddrs[n:]
		if d.stride == -1 {
			copy(dst, d.idx[k0:k1])
			return
		}
		for k := range dst {
			dst[k] = d.lo + (k0+k)*d.stride
		}
		return
	}
	n := len(w.writes)
	w.writes = slices.Grow(w.writes, k1-k0)[:n+k1-k0]
	dst := w.writes[n:]
	switch {
	case d.stride == -1:
		idx, vals := d.idx[k0:k1], d.vals[k0:k1]
		for k := range dst {
			dst[k] = writeOp{idx[k], vals[k]}
		}
	case d.kind == bulkFill:
		for k := range dst {
			dst[k] = writeOp{d.lo + (k0+k)*d.stride, d.fill}
		}
	default:
		vals := d.vals[k0:k1]
		for k := range dst {
			dst[k] = writeOp{d.lo + (k0+k)*d.stride, vals[k]}
		}
	}
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
		w.writes = append(w.writes, writeOp{addr: a, val: v})
	}
}
