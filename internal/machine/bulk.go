package machine

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"lowcontend/internal/xrand"
)

// This file implements the bulk access layer: whole strided ranges,
// gathers, and scatters recorded as compact descriptors instead of one
// buffer entry per element. Settlement proves descriptors disjoint from
// everything else the step touched and then charges contention, detects
// violations, and applies writes with O(1) bookkeeping per descriptor
// (data movement aside); descriptors that genuinely overlap — or whose
// contention the model forbids, or that carry unsorted index lists —
// are expanded back into the scalar element buffers at exactly the
// positions scalar code would have filled, so the per-cell counters,
// the kappa arg-max, arbitration order, violations, traces, and hot
// cells are bit-identical to an element-by-element replay.
//
// Two recording surfaces share the descriptor machinery:
//
//   - Ctx.ReadRange / Ctx.WriteRange / Ctx.Gather / Ctx.Scatter record
//     single-processor descriptors from inside a ParDo body. Their ops
//     are charged through the Ctx counters like scalar accesses
//     (afterProc sees them), so settlement only owes them contention
//     accounting and write application.
//   - Machine.Bulk opens a builder for a whole descriptor-only step:
//     one descriptor covers a range of processors (perProc cells each),
//     so a regular phase like "processor i copies cell src+i to dst+i"
//     is two descriptors and no per-processor host loop at all. These
//     descriptors are uncharged: settlement derives the per-processor
//     operation maximum (and the SIMD one-op rule) from a processor-
//     interval sweep over the descriptors.
type bulkKind uint8

const (
	bulkRead    bulkKind = iota // count cells read
	bulkWrite                   // count cells written from vals
	bulkFill                    // count cells written with the constant fill
	bulkChargeC                 // charged local computation: fill ops on each of count processors
)

func (k bulkKind) cells() bool   { return k <= bulkFill }
func (k bulkKind) isWrite() bool { return k == bulkWrite || k == bulkFill }

// bulkDesc is one recorded bulk access. For cell-bearing kinds the count
// cells are lo, lo+stride, ..., (stride >= 1), the single cell lo
// accessed count times (stride == 0), or the explicit list off+idx[k]
// (stride == -1). Cell k belongs to processor proc + k/perProc. Charge
// kinds carry no cells: count processors starting at proc are charged
// fill operations each.
type bulkDesc struct {
	kind    bulkKind
	sorted  bool // idx strictly ascending (true for all strided descriptors)
	charged bool // ops already counted by the recording Ctx (afterProc)
	expand  bool // settlement decision: element expansion required
	lo, hi  int  // inclusive address interval
	stride  int  // >= 1 arithmetic; 0 one cell; -1 explicit idx
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
	// rPos/wPos are the scalar-buffer lengths at recording time: the
	// positions where this descriptor's elements belong if settlement
	// has to expand it, so expansion reproduces the exact buffer order
	// of an element-by-element replay.
	rPos, wPos int
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
	switch {
	case d.stride >= 1:
		return d.lo + k*d.stride
	case d.stride == 0:
		return d.lo
	default:
		return d.off + d.idx[k]
	}
}

// covers reports whether addr is one of the descriptor's cells.
func (d *bulkDesc) covers(addr int) bool {
	if addr < d.lo || addr > d.hi {
		return false
	}
	switch {
	case d.stride >= 1:
		return (addr-d.lo)%d.stride == 0
	case d.stride == 0:
		return true // addr == lo given the interval check
	default:
		if d.sorted {
			_, ok := slices.BinarySearch(d.idx, addr-d.off)
			return ok
		}
		return slices.Contains(d.idx, addr-d.off)
	}
}

// elemIndex returns k such that addrAt(k) == addr; the caller has
// established coverage. Only used for sorted descriptors.
func (d *bulkDesc) elemIndex(addr int) int {
	if d.stride >= 1 {
		return (addr - d.lo) / d.stride
	}
	k, _ := slices.BinarySearch(d.idx, addr-d.off)
	return k
}

// descsOverlap reports whether two cell-bearing descriptors can share a
// cell. It must never report false for descriptors that do share one;
// reporting true for disjoint descriptors only costs performance (the
// step expands them instead of settling analytically).
func descsOverlap(a, b *bulkDesc) bool {
	if a.hi < b.lo || b.hi < a.lo {
		return false
	}
	if a.stride == 0 {
		return b.covers(a.lo)
	}
	if b.stride == 0 {
		return a.covers(b.lo)
	}
	if a.stride >= 1 && b.stride >= 1 {
		if a.stride == b.stride {
			// Same stride and overlapping intervals: they collide iff
			// they lie in the same residue class.
			return (a.lo-b.lo)%a.stride == 0
		}
		// Different strides: enumerate the smaller one when cheap.
		sm, lg := a, b
		if lg.count < sm.count {
			sm, lg = lg, sm
		}
		if sm.count <= 64 {
			for k := 0; k < sm.count; k++ {
				if lg.covers(sm.addrAt(k)) {
					return true
				}
			}
			return false
		}
		return true // unproven: assume overlap
	}
	// At least one explicit index list. Unsorted lists are always
	// expanded, so treat them as overlapping everything in range.
	if !a.sorted || !b.sorted {
		return true
	}
	if a.stride == -1 && b.stride == -1 {
		if a.mod != 0 && a.mod == b.mod &&
			!cyclicIntervalsMeet(a.rlo, a.rlen, b.rlo, b.rlen, a.mod) {
			return false
		}
		return sortedListsIntersect(a.idx, a.off, b.idx, b.off)
	}
	l, s := a, b
	if l.stride != -1 {
		l, s = b, a
	}
	i, _ := slices.BinarySearch(l.idx, s.lo-l.off)
	for ; i < len(l.idx) && l.off+l.idx[i] <= s.hi; i++ {
		if s.covers(l.off + l.idx[i]) {
			return true
		}
	}
	return false
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

// rangeDesc builds a throwaway descriptor for overlap queries against an
// arithmetic range.
func rangeDesc(lo, hi, stride, count int) bulkDesc {
	return bulkDesc{sorted: true, lo: lo, hi: hi, stride: stride, count: count}
}

// ---------------------------------------------------------------------
// Ctx-level recording (single-processor descriptors, charged).

// ReadRange reads the n cells lo, lo+stride, ..., lo+(n-1)*stride and
// returns their beginning-of-step values (for stride 1, a view of shared
// memory; otherwise a buffer valid until the end of the step). It is
// equivalent to n Read calls but records one descriptor when the range
// does not meet this processor's other reads. stride 0 reads cell lo n
// times (one distinct cell).
func (c *Ctx) ReadRange(lo, n, stride int) []Word {
	m := c.m
	if n < 0 || stride < 0 {
		panic(fmt.Sprintf("machine: ReadRange(%d, %d, %d)", lo, n, stride))
	}
	if n == 0 {
		return nil
	}
	if stride == 0 {
		m.checkAddr(lo)
		c.r += int64(n)
		if !(len(c.w.descs) > c.dStart && c.descCoveredR(lo)) {
			c.readElem(lo)
		}
		out := c.retSlice(n)
		v := m.mem[lo]
		for i := range out {
			out[i] = v
		}
		return out
	}
	hi := lo + (n-1)*stride
	m.checkAddr(lo)
	m.checkAddr(hi)
	c.r += int64(n)
	w := c.w
	if c.rangeClashes(bulkRead, lo, hi, stride, n) {
		// The range meets this processor's own earlier reads: dedupe
		// element by element (Definition 2.1 counts distinct processors
		// per cell, so a cell this processor already read is not
		// recorded again).
		for k := 0; k < n; k++ {
			a := lo + k*stride
			if !(len(w.descs) > c.dStart && c.descCoveredR(a)) {
				c.readElem(a)
			}
		}
		w.bulkRecN++
		w.bulkExpN++
	} else {
		w.descs = append(w.descs, bulkDesc{
			kind: bulkRead, sorted: true, charged: true,
			lo: lo, hi: hi, stride: stride, count: n,
			proc: c.proc, perProc: n,
			rPos: len(w.readAddrs), wPos: len(w.writes),
		})
	}
	if stride == 1 {
		return m.mem[lo : lo+n : lo+n]
	}
	out := c.retSlice(n)
	for k := range out {
		out[k] = m.mem[lo+k*stride]
	}
	return out
}

// WriteRange writes vals[k] to cell lo + k*stride for k in [0, n). It is
// equivalent to n Write calls: within the processor later writes win,
// and cross-processor conflicts arbitrate to the highest index. vals is
// copied at call time. stride 0 writes cell lo n times (vals[n-1]
// survives program order).
func (c *Ctx) WriteRange(lo, n, stride int, vals []Word) {
	m := c.m
	if n < 0 || stride < 0 || len(vals) != n {
		panic(fmt.Sprintf("machine: WriteRange(%d, %d, %d) with %d vals", lo, n, stride, len(vals)))
	}
	if n == 0 {
		return
	}
	if stride == 0 {
		m.checkAddr(lo)
		c.wr += int64(n)
		v := vals[n-1]
		if !(len(c.w.descs) > c.dStart && c.descUpdateW(lo, v)) {
			c.writeElem(lo, v)
		}
		return
	}
	hi := lo + (n-1)*stride
	m.checkAddr(lo)
	m.checkAddr(hi)
	c.wr += int64(n)
	w := c.w
	if c.rangeClashes(bulkWrite, lo, hi, stride, n) {
		for k := 0; k < n; k++ {
			a := lo + k*stride
			if !(len(w.descs) > c.dStart && c.descUpdateW(a, vals[k])) {
				c.writeElem(a, vals[k])
			}
		}
		w.bulkRecN++
		w.bulkExpN++
		return
	}
	off := len(w.snapVals)
	w.snapVals = append(w.snapVals, vals...)
	w.descs = append(w.descs, bulkDesc{
		kind: bulkWrite, sorted: true, charged: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: c.proc, perProc: n,
		vals: w.snapVals[off : off+n : off+n],
		rPos: len(w.readAddrs), wPos: len(w.writes),
	})
}

// Gather reads the cells idx[0..n) and returns their values (buffer
// valid until the end of the step). A strictly ascending index list
// records as one descriptor; any other list falls back to deduped
// element recording (identical accounting, element cost).
func (c *Ctx) Gather(idx []int) []Word {
	n := len(idx)
	if n == 0 {
		return nil
	}
	m := c.m
	w := c.w
	c.r += int64(n)
	out := c.retSlice(n)
	asc := true
	for k, a := range idx {
		m.checkAddr(a)
		out[k] = m.mem[a]
		if k > 0 && a <= idx[k-1] {
			asc = false
		}
	}
	if asc && !c.idxClashes(bulkRead, idx) {
		off := len(w.snapIdx)
		w.snapIdx = append(w.snapIdx, idx...)
		w.descs = append(w.descs, bulkDesc{
			kind: bulkRead, sorted: true, charged: true,
			lo: idx[0], hi: idx[n-1], stride: -1, count: n,
			proc: c.proc, perProc: n,
			idx:  w.snapIdx[off : off+n : off+n],
			rPos: len(w.readAddrs), wPos: len(w.writes),
		})
		return out
	}
	for _, a := range idx {
		if !(len(w.descs) > c.dStart && c.descCoveredR(a)) {
			c.readElem(a)
		}
	}
	w.bulkRecN++
	w.bulkExpN++
	return out
}

// Scatter writes vals[k] to cell idx[k]. A strictly ascending index
// list records as one descriptor; any other falls back to element
// recording with the usual program-order overwrite semantics. idx and
// vals are copied at call time.
func (c *Ctx) Scatter(idx []int, vals []Word) {
	n := len(idx)
	if len(vals) != n {
		panic(fmt.Sprintf("machine: Scatter with %d indices, %d vals", n, len(vals)))
	}
	if n == 0 {
		return
	}
	m := c.m
	w := c.w
	c.wr += int64(n)
	asc := true
	for k, a := range idx {
		m.checkAddr(a)
		if k > 0 && a <= idx[k-1] {
			asc = false
		}
	}
	if asc && !c.idxClashes(bulkWrite, idx) {
		offI := len(w.snapIdx)
		w.snapIdx = append(w.snapIdx, idx...)
		offV := len(w.snapVals)
		w.snapVals = append(w.snapVals, vals...)
		w.descs = append(w.descs, bulkDesc{
			kind: bulkWrite, sorted: true, charged: true,
			lo: idx[0], hi: idx[n-1], stride: -1, count: n,
			proc: c.proc, perProc: n,
			idx:  w.snapIdx[offI : offI+n : offI+n],
			vals: w.snapVals[offV : offV+n : offV+n],
			rPos: len(w.readAddrs), wPos: len(w.writes),
		})
		return
	}
	for k, a := range idx {
		if !(len(w.descs) > c.dStart && c.descUpdateW(a, vals[k])) {
			c.writeElem(a, vals[k])
		}
	}
	w.bulkRecN++
	w.bulkExpN++
}

// descCoveredR reports whether one of this processor's read descriptors
// already covers addr (a repeated read records nothing).
func (c *Ctx) descCoveredR(addr int) bool {
	w := c.w
	for di := c.dStart; di < len(w.descs); di++ {
		d := &w.descs[di]
		if d.kind == bulkRead && d.covers(addr) {
			return true
		}
	}
	return false
}

// descUpdateW overwrites the buffered value when one of this
// processor's write descriptors covers addr (program order within the
// processor), reporting whether it did.
func (c *Ctx) descUpdateW(addr int, v Word) bool {
	w := c.w
	for di := c.dStart; di < len(w.descs); di++ {
		d := &w.descs[di]
		if d.kind == bulkWrite && d.covers(addr) {
			d.vals[d.elemIndex(addr)] = v
			return true
		}
	}
	return false
}

// rangeClashes reports whether the arithmetic range meets any of this
// processor's earlier same-kind accesses — scalar entries or
// descriptors — in which case the range must record element by element.
func (c *Ctx) rangeClashes(kind bulkKind, lo, hi, stride, count int) bool {
	w := c.w
	if kind == bulkRead {
		for _, a := range w.readAddrs[c.rStart:] {
			if a >= lo && a <= hi && (stride == 1 || (a-lo)%stride == 0) {
				return true
			}
		}
	} else {
		for j := c.wStart; j < len(w.writes); j++ {
			a := w.writes[j].addr
			if a >= lo && a <= hi && (stride == 1 || (a-lo)%stride == 0) {
				return true
			}
		}
	}
	tmp := rangeDesc(lo, hi, stride, count)
	for di := c.dStart; di < len(w.descs); di++ {
		d := &w.descs[di]
		if d.kind == kind && descsOverlap(d, &tmp) {
			return true
		}
	}
	return false
}

// idxClashes is rangeClashes for a strictly ascending index list.
func (c *Ctx) idxClashes(kind bulkKind, idx []int) bool {
	w := c.w
	lo, hi := idx[0], idx[len(idx)-1]
	if kind == bulkRead {
		for _, a := range w.readAddrs[c.rStart:] {
			if a >= lo && a <= hi {
				if _, ok := slices.BinarySearch(idx, a); ok {
					return true
				}
			}
		}
	} else {
		for j := c.wStart; j < len(w.writes); j++ {
			a := w.writes[j].addr
			if a >= lo && a <= hi {
				if _, ok := slices.BinarySearch(idx, a); ok {
					return true
				}
			}
		}
	}
	tmp := bulkDesc{sorted: true, lo: lo, hi: hi, stride: -1, count: len(idx), idx: idx}
	for di := c.dStart; di < len(w.descs); di++ {
		d := &w.descs[di]
		if d.kind == kind && descsOverlap(d, &tmp) {
			return true
		}
	}
	return false
}

// retSlice carves n words out of the worker's per-step return arena.
// Returned slices stay valid until the end of the step.
func (c *Ctx) retSlice(n int) []Word {
	w := c.w
	off := len(w.retBuf)
	need := off + n
	if cap(w.retBuf) < need {
		nb := make([]Word, need, max(need, 2*cap(w.retBuf)))
		copy(nb, w.retBuf)
		w.retBuf = nb
	} else {
		w.retBuf = w.retBuf[:need]
	}
	return w.retBuf[off:need:need]
}

// ---------------------------------------------------------------------
// Step-level recording: the Bulk builder.

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
	snapIdx  []int
	scratch  []Word // Vals arena
	ret      []Word // ReadRange/Gather copy-out arena
	walks    []idxWalk
}

// walkKey identifies an index list and the contract it was walked
// against. A list is keyed by its first element's address and its
// length: it must stay unmodified until Commit, so within one step the
// same key always names the same contents.
type walkKey struct {
	first                 *int
	n, perProc, mod, rlen int
}

// idxWalk is the memoised offset-free validation of one index list:
// ascent, residue certificate and per-processor distinctness checked,
// and the list's relative bounds.
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
// processor must be distinct (the strided forms guarantee this; index
// lists are checked).
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
	b.snapIdx = b.snapIdx[:0]
	b.scratch = b.scratch[:0]
	b.ret = b.ret[:0]
	b.walks = b.walks[:0]
	return b
}

func (b *Bulk) checkShape(n, stride, procLo, perProc int) {
	if n < 0 || stride < 0 || procLo < 0 || perProc < 1 {
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
	if stride == 0 {
		panic("machine: bulk ReadRange with stride 0; use Broadcast")
	}
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
	hi := lo
	if stride >= 1 {
		hi = lo + (n-1)*stride
	}
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
	hi := lo
	if stride >= 1 {
		hi = lo + (n-1)*stride
	}
	m.checkAddr(lo)
	m.checkAddr(hi)
	b.descs = append(b.descs, bulkDesc{
		kind: bulkFill, sorted: true,
		lo: lo, hi: hi, stride: stride, count: n,
		proc: procLo, perProc: perProc, fill: v,
	})
}

// Broadcast declares that nprocs processors starting at procLo all read
// cell addr (contention nprocs on models that allow it; a violation
// otherwise, detected by expansion). It returns the value read.
func (b *Bulk) Broadcast(addr, nprocs, procLo int) Word {
	b.checkShape(nprocs, 0, procLo, 1)
	b.m.checkAddr(addr)
	if nprocs == 0 {
		return 0
	}
	b.descs = append(b.descs, bulkDesc{
		kind: bulkRead, sorted: true,
		lo: addr, hi: addr, stride: 0, count: nprocs,
		proc: procLo, perProc: 1,
	})
	return b.m.mem[addr]
}

// Gather declares that processors procLo, procLo+1, ... read the cells
// idx[0..n), perProc cells per processor, and returns their values
// (buffer valid until the next Bulk). idx must stay unmodified until
// Commit. Cells read by one processor must be distinct.
func (b *Bulk) Gather(idx []int, procLo, perProc int) []Word {
	return b.gather(0, idx, procLo, perProc, 0, 0)
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
func (b *Bulk) GatherMod(base int, pos []int, procLo, perProc, mod, rlen int) []Word {
	checkResidueCert(mod, rlen)
	return b.gather(base, pos, procLo, perProc, mod, rlen)
}

func (b *Bulk) gather(base int, idx []int, procLo, perProc, mod, rlen int) []Word {
	b.checkShape(len(idx), 1, procLo, perProc)
	n := len(idx)
	if n == 0 {
		return nil
	}
	d := b.listDesc(bulkRead, base, idx, procLo, perProc, mod, rlen)
	out := b.retSlice(n)
	mem := b.m.mem
	for k, a := range idx {
		out[k] = mem[base+a]
	}
	b.descs = append(b.descs, d)
	return out
}

// Scatter declares that processors procLo, procLo+1, ... write vals[k]
// to cell idx[k], perProc cells per processor. idx and vals must stay
// unmodified until Commit (vals is snapshotted if it aliases shared
// memory). Cells written by one processor must be distinct; conflicting
// processors arbitrate to the highest index, as always.
func (b *Bulk) Scatter(idx []int, procLo, perProc int, vals []Word) {
	b.scatter(0, idx, procLo, perProc, vals, 0, 0)
}

// ScatterMod is Scatter over the base-relative list base+pos[k] with a
// residue certificate on the positions; see GatherMod.
func (b *Bulk) ScatterMod(base int, pos []int, procLo, perProc int, vals []Word, mod, rlen int) {
	checkResidueCert(mod, rlen)
	b.scatter(base, pos, procLo, perProc, vals, mod, rlen)
}

func (b *Bulk) scatter(base int, idx []int, procLo, perProc int, vals []Word, mod, rlen int) {
	b.checkShape(len(idx), 1, procLo, perProc)
	n := len(idx)
	if len(vals) != n {
		panic(fmt.Sprintf("machine: bulk Scatter with %d indices, %d vals", n, len(vals)))
	}
	if n == 0 {
		return
	}
	d := b.listDesc(bulkWrite, base, idx, procLo, perProc, mod, rlen)
	d.vals = b.snapIfMem(vals)
	b.descs = append(b.descs, d)
}

// listDesc validates the non-empty index list base+idx[k] and returns
// its descriptor, payload unset. Each call range-checks the list's own
// addresses — only the two ends of an ascending list, which bound it,
// and every address otherwise — while the offset-free walk (ascent,
// residue certificate, per-processor distinctness, relative bounds) is
// memoised for the rest of the step, so a list shared by several
// descriptors is walked once.
func (b *Bulk) listDesc(kind bulkKind, base int, idx []int, procLo, perProc, mod, rlen int) bulkDesc {
	key := walkKey{&idx[0], len(idx), perProc, mod, rlen}
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
		proc: procLo, perProc: perProc, idx: idx, off: base,
		mod: mod, rlen: rlen,
	}
	if mod != 0 {
		d.rlo = base & (mod - 1)
	}
	return d
}

// walkIdx is the offset-free walk of an index list: it checks the
// residue certificate (when key.mod != 0) and, for a list that does not
// ascend strictly, per-processor distinctness, and returns the list's
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
	checkPerProcDistinct(base, idx, key.perProc)
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

// Step returns the step index this builder commits as.
func (b *Bulk) Step() uint64 { return b.step }

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

// checkPerProcDistinct enforces the distinct-cells-per-processor
// contract for unsorted index lists base+idx[k] (sorted lists are
// distinct by ascent; a violation would silently miscount contention,
// so it is a programming error worth a panic).
func checkPerProcDistinct(base int, idx []int, perProc int) {
	if perProc == 1 {
		return
	}
	for g := 0; g < len(idx); g += perProc {
		e := min(g+perProc, len(idx))
		for i := g; i < e; i++ {
			for j := i + 1; j < e; j++ {
				if idx[i] == idx[j] {
					panic(fmt.Sprintf("machine: bulk index list repeats cell %d within one processor", base+idx[i]))
				}
			}
		}
	}
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
	w.bulkOnly = true
	w.descs = append(w.descs[:0], b.descs...)
	return m.finishStep(b.p, b.label, m.pool[:1])
}

// ---------------------------------------------------------------------
// Settlement.

// bulkEvent is one processor-interval delta for the per-processor
// operation sweep over uncharged descriptors.
type bulkEvent struct {
	proc       int
	dr, dw, dc int64
}

// bulkItem is one entry of the per-kind disjointness check: a
// descriptor, or (d == nil) the opaque interval of one shard's scalar
// accesses of that kind.
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
	// expanded records that at least one descriptor expanded into the
	// scalar buffers this step. A fused gang step must then take the
	// sharded path: expansion splices cells the per-chunk bounds never
	// saw, so the chunk-disjointness proof no longer covers them.
	expanded bool
}

// settleBulk processes every recorded descriptor of the step: it
// derives the uncharged descriptors' per-processor operation load,
// decides which descriptors settle analytically and which must expand
// into the scalar buffers, applies the analytic writes, and performs
// the expansions. It runs before the scalar settlement, so expanded
// elements flow through the per-cell counters exactly like scalar code.
func (m *Machine) settleBulk(workers []*worker, bs *bulkSettle) {
	bs.maxRAddr, bs.maxWAddr = -1, -1
	bs.simdProc = -1
	nd := 0
	for _, w := range workers {
		m.bulkDescs.Add(w.bulkRecN)
		m.bulkExpanded.Add(w.bulkExpN)
		w.bulkRecN, w.bulkExpN = 0, 0
		nd += len(w.descs)
	}
	if nd == 0 {
		return
	}
	m.bulkDescs.Add(int64(nd))

	// Per-processor operation sweep over uncharged descriptors (charged
	// ones already went through afterProc). Each descriptor contributes
	// a flat interval of processors doing perProc ops, plus a possibly
	// lighter last processor.
	ev := m.bulkEv[:0]
	for _, w := range workers {
		for i := range w.descs {
			d := &w.descs[i]
			if d.charged {
				continue
			}
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
	}
	if len(ev) > 0 {
		slices.SortFunc(ev, func(a, b bulkEvent) int { return cmp.Compare(a.proc, b.proc) })
		simd := m.model.SIMD()
		var r, w, c int64
		for i := 0; i < len(ev); {
			p := ev[i].proc
			for i < len(ev) && ev[i].proc == p {
				r += ev[i].dr
				w += ev[i].dw
				c += ev[i].dc
				i++
			}
			if mo := max(r, w, c); mo > 0 {
				bs.maxOps = max(bs.maxOps, mo)
				if simd && mo > 1 && !bs.simdViol {
					// Ascending sweep: this is the lowest-indexed
					// processor exceeding the SIMD one-op rule, exactly
					// the processor scalar replay would report.
					bs.simdViol = true
					bs.simdCount = mo
					bs.simdProc = p
				}
			}
		}
	}
	m.bulkEv = ev[:0]

	// Disposition: a descriptor settles analytically only when its
	// cells provably meet nothing else of the same access kind in the
	// step. Unsorted index lists, contention the model forbids, and
	// profiled steps (hot-cell attribution needs real counters) expand
	// unconditionally.
	expandAll := m.hotK > 0 || m.noBulkFast
	rForbidden := !m.model.ConcurrentReads()
	wForbidden := !m.model.ConcurrentWrites()
	rItems := m.bulkR[:0]
	wItems := m.bulkW[:0]
	if m.gangActive {
		// Fused gang step: the workers' scalar bounds are stale
		// chunk-locals (reset around every claimed chunk), so the opaque
		// scalar intervals come from the per-chunk bounds instead — one
		// interval per touched chunk, independent of the chunk schedule.
		for i := range m.chunkB {
			b := &m.chunkB[i]
			if b.rHi >= b.rLo {
				rItems = append(rItems, bulkItem{nil, b.rLo, b.rHi})
			}
			if b.wHi >= b.wLo {
				wItems = append(wItems, bulkItem{nil, b.wLo, b.wHi})
			}
		}
	} else {
		for _, w := range workers {
			if w.rHi >= w.rLo {
				rItems = append(rItems, bulkItem{nil, w.rLo, w.rHi})
			}
			if w.wHi >= w.wLo {
				wItems = append(wItems, bulkItem{nil, w.wLo, w.wHi})
			}
		}
	}
	for _, w := range workers {
		for i := range w.descs {
			d := &w.descs[i]
			if !d.kind.cells() {
				continue
			}
			if d.kind == bulkRead {
				d.expand = expandAll || !d.sorted ||
					(d.stride == 0 && d.nprocs() > 1 && rForbidden)
				rItems = append(rItems, bulkItem{d, d.lo, d.hi})
			} else {
				d.expand = expandAll || !d.sorted ||
					(d.stride == 0 && d.nprocs() > 1 && wForbidden)
				wItems = append(wItems, bulkItem{d, d.lo, d.hi})
			}
		}
	}
	markOverlaps(rItems)
	markOverlaps(wItems)
	m.bulkR = rItems[:0]
	m.bulkW = wItems[:0]

	// Analytic settlement of the surviving descriptors: strided and
	// sorted-index cells are touched by exactly one processor each
	// (contention one); a Broadcast cell is touched by every spanned
	// processor. Writes apply directly — the descriptor's last buffered
	// value per cell is the highest-indexed writer's, preserving the
	// arbitration invariant.
	for _, w := range workers {
		expand := false
		for i := range w.descs {
			d := &w.descs[i]
			if !d.kind.cells() {
				continue
			}
			if d.expand {
				expand = true
				bs.expanded = true
				m.bulkExpanded.Add(1)
				continue
			}
			k := int64(1)
			if d.stride == 0 {
				k = int64(d.nprocs())
			}
			// Count ties break toward the smallest address (a charge-only
			// sentinel at -1 never wins one), so the arg-max is the same
			// whatever order the workers hold the descriptors in.
			if d.kind == bulkRead {
				if k > bs.maxR || (k == bs.maxR && (bs.maxRAddr < 0 || d.lo < bs.maxRAddr)) {
					bs.maxR, bs.maxRAddr = k, d.lo
				}
			} else {
				if k > bs.maxW || (k == bs.maxW && (bs.maxWAddr < 0 || d.lo < bs.maxWAddr)) {
					bs.maxW, bs.maxWAddr = k, d.lo
				}
				m.applyDesc(d)
			}
		}
		if expand {
			if w.bulkOnly {
				w.buildReplay()
			} else {
				w.spliceExpand()
			}
		}
	}
}

// markOverlaps mutually marks for expansion every pair of items of one
// access kind that may share a cell. Scalar intervals are opaque: a
// descriptor meeting one expands. One pass suffices — expansion routes
// a descriptor's cells through the same counters scalar cells use, so
// an expanded descriptor endangers only items it actually shares cells
// with, and those were marked by their own pairwise test.
func markOverlaps(items []bulkItem) {
	// Sweep in address order: after sorting by lo, the partners of
	// items[i] are exactly the following items whose lo is within
	// items[i]'s interval, so disjoint steps cost O(d log d) rather
	// than O(d^2) pair enumeration.
	slices.SortFunc(items, func(x, y bulkItem) int { return x.lo - y.lo })
	for i := range items {
		a := &items[i]
		for j := i + 1; j < len(items) && items[j].lo <= a.hi; j++ {
			bt := &items[j]
			if a.d == nil && bt.d == nil {
				continue
			}
			switch {
			case a.d == nil:
				bt.d.expand = true
			case bt.d == nil:
				a.d.expand = true
			case descsOverlap(a.d, bt.d):
				a.d.expand = true
				bt.d.expand = true
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
	case d.stride == 0:
		if d.kind == bulkFill {
			m.mem[d.lo] = d.fill
		} else {
			m.mem[d.lo] = d.vals[d.count-1]
		}
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

// spliceExpand rebuilds the scalar buffers with every expanded
// descriptor's elements inserted at the positions recorded when the
// descriptor was issued, reproducing the exact buffer order of an
// element-by-element replay (which the kappa arg-max, violation
// addresses, and write arbitration depend on). Ctx-recorded descriptors
// only (single processor, distinct cells, kinds read/write).
func (w *worker) spliceExpand() {
	expR := w.expR[:0]
	expW := w.expW[:0]
	ri, wi := 0, 0
	for i := range w.descs {
		d := &w.descs[i]
		expR = append(expR, w.readAddrs[ri:d.rPos]...)
		expW = append(expW, w.writes[wi:d.wPos]...)
		ri, wi = d.rPos, d.wPos
		if !d.expand || !d.kind.cells() {
			continue
		}
		if d.kind == bulkRead {
			for k := 0; k < d.count; k++ {
				a := d.addrAt(k)
				expR = append(expR, a)
				w.touchR(a)
			}
		} else {
			p := int32(d.proc)
			for k := 0; k < d.count; k++ {
				a := d.addrAt(k)
				expW = append(expW, writeOp{addr: a, val: d.vals[k], proc: p})
				w.touchW(a)
			}
		}
	}
	expR = append(expR, w.readAddrs[ri:]...)
	expW = append(expW, w.writes[wi:]...)
	w.readAddrs, w.expR = expR, w.readAddrs[:0]
	w.writes, w.expW = expW, w.writes[:0]
}

// buildReplay expands a descriptor-only (Bulk) step's marked
// descriptors into the scalar buffers in processor-major order — for
// each processor in ascending index order, its cells in issue order —
// which is exactly the order the equivalent ParDo body would have
// buffered them in, including the per-processor dedupe: a processor
// reaching one cell through several descriptors (or a Broadcast's
// repeats) records one read entry, and its later writes overwrite the
// buffered value in place.
func (w *worker) buildReplay() {
	pmin, pmax := int(^uint(0)>>1), -1
	for i := range w.descs {
		d := &w.descs[i]
		if !d.expand || !d.kind.cells() {
			continue
		}
		pmin = min(pmin, d.proc)
		pmax = max(pmax, d.proc+d.nprocs()-1)
	}
	expR := w.expR[:0]
	expW := w.expW[:0]
	for p := pmin; p <= pmax; p++ {
		rs, ws := len(expR), len(expW)
		pushR := func(a int) {
			for _, prev := range expR[rs:] {
				if prev == a {
					return
				}
			}
			expR = append(expR, a)
			w.touchR(a)
		}
		pushW := func(a int, v Word) {
			for j := len(expW) - 1; j >= ws; j-- {
				if expW[j].addr == a {
					expW[j].val = v
					return
				}
			}
			expW = append(expW, writeOp{addr: a, val: v, proc: int32(p)})
			w.touchW(a)
		}
		for i := range w.descs {
			d := &w.descs[i]
			if !d.expand || !d.kind.cells() || p < d.proc || p >= d.proc+d.nprocs() {
				continue
			}
			k0 := (p - d.proc) * d.perProc
			k1 := min(d.count, k0+d.perProc)
			switch {
			case d.kind == bulkRead && d.stride == 0:
				pushR(d.lo)
			case d.kind == bulkRead:
				for k := k0; k < k1; k++ {
					pushR(d.addrAt(k))
				}
			case d.stride == 0:
				v := d.fill
				if d.kind == bulkWrite {
					v = d.vals[k1-1]
				}
				pushW(d.lo, v)
			default:
				for k := k0; k < k1; k++ {
					v := d.fill
					if d.kind == bulkWrite {
						v = d.vals[k]
					}
					pushW(d.addrAt(k), v)
				}
			}
		}
	}
	w.readAddrs, w.expR = expR, w.readAddrs[:0]
	w.writes, w.expW = expW, w.writes[:0]
}
