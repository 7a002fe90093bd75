// Package loadbalance implements Section 3 of the paper: the QRQW
// dispersal-stage load-balancing algorithm (an adaptation of Gil's CRCW
// algorithm), together with the Theta(lg n) EREW prefix-sums baseline.
//
// Problem: m tasks are distributed over n processors; processor i holds
// m_i tasks and a pointer to its task array, and only m and the maximum
// (normalized) load L are globally known. Redistribute so every processor
// holds O(1 + m/n) tasks.
//
// The QRQW algorithm runs in O(lg L + Tlc(n) * lg lg L) time and linear
// work w.h.p., where Tlc is the linear-compaction time (O(sqrt(lg n)) on
// QRQW; Lemma 3.3 / Theorem 3.4). Each dispersal stage:
//
//  1. marks processors with load >= 2u as overloaded,
//  2. maps them injectively into an auxiliary array via linear
//     compaction,
//  3. assigns each overloaded processor a team of standby processors,
//     broadcasting its task-subarray descriptors to the team through a
//     segmented doubling scan (the paper's "local broadcasting" in place
//     of concurrent reads), and
//  4. lets each team member adopt a bounded slice of the overloaded
//     processor's tasks by pointer — tasks are never copied during a
//     stage, which is exactly what the array-of-arrays format is for.
//
// Between phases, each processor consolidates its pointer arrays
// sequentially (the paper's Section 3.2 consolidation), resetting the
// array-of-arrays width to one.
package loadbalance

import (
	"fmt"
	"sort"

	"lowcontend/internal/compact"
	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
)

// maxQ caps the width (entries) of each processor's pointer array, so no
// input reserves more than 96 entries per processor. An input whose
// qWidth bound reaches the cap relies on its run staying narrower, which
// lb/append's capacity panic guards.
const maxQ = 96

// qWidth bounds the pointer-array width that Run can reach on n
// processors holding mU units with maximum load L units, capped at maxQ.
//
// Run tracks wmax, an upper bound on every processor's width. lb/init and
// consolidate write entry 0 only and leave wmax = 1. In a stage an owner
// drains to width 0 and every other processor keeps its width and
// appends at most the multiplicity mu entries, after which Run sets
// wmax += mu. So the width never exceeds wmax + mu for a stage that runs.
//
// A stage with parameter u runs only when 4(wmax+2) <= u, so
// wmax <= u/4 - 2 and, as wmax >= 1, u >= 12. Bound never grows, so
// u <= startU(L): for L <= 121 (startU(L) <= 11) no stage runs and the
// width is 1. Otherwise the stage compacts into teams <= 14k-4 cells
// (compact.Result.OutLen), k = compactTarget(n, mU, u) >= 2 (L >= 122
// and L <= 2n in units, so n >= 61), and mu = ceil(teams*s/n) with
// s = teamSize(u, wmax).
// Both grow with wmax, so a stage at u leaves width at most
//
//	w(u) = wmax + ceil((14k-4)*s/n)  at wmax = u/4 - 2,
//
// and qWidth is the largest w(u) over 12 <= u <= startU(L). (mu can exceed
// s: the compaction output may hold more cells than there are
// processors.)
func qWidth(n, mU, L int) int {
	w := 1
	for u, top := 12, startU(L); u <= top && w < maxQ; u++ {
		wmax := u/4 - 2
		k := compactTarget(n, mU, u)
		w = prim.Max(w, wmax+prim.CeilDiv((14*k-4)*teamSize(u, wmax), n))
	}
	return prim.Min(w, maxQ)
}

// Balancer holds the machine-resident state of one load-balancing run.
type Balancer struct {
	m       *machine.Machine
	n       int // processors
	M       int // tasks
	L       int // maximum normalized load (problem input)
	unit    int // tasks per super-task (1 unless m > 2n)
	mU      int // total super-tasks
	counts  []int
	taskOff []int

	// Machine regions. Processor p's pointer array lives at
	// qptr[p*qw ..], qlen[p*qw ..]; qcnt[p] is its width and loadv[p]
	// its load in units.
	qptr, qlen, qcnt, loadv int
	qw                      int // pointer-array capacity per processor

	indirect bool // pieces index consBlk instead of the task array
	consBlk  int
	consLen  int

	// Bound is the host-tracked invariant: every processor holds at
	// most Bound units.
	Bound int
}

// TaskRange is a resolved assignment of consecutive input tasks.
type TaskRange struct {
	Start, Len int
}

// New prepares a balancing instance on the given machine. counts[i] is
// processor i's initial task count; tasks are conceptually stored
// contiguously in input order (processor i's tasks occupy the range
// starting at sum of earlier counts). The maximum load L is part of the
// problem input (the paper's problem statement supplies it).
func New(m *machine.Machine, counts []int) (*Balancer, error) {
	return newBalancer(m, counts, qWidth)
}

// newBalancer is New with the pointer-array capacity chosen by
// width(n, mU, L).
func newBalancer(m *machine.Machine, counts []int, width func(n, mU, L int) int) (*Balancer, error) {
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("loadbalance: no processors")
	}
	unit, mU, L, err := units(counts)
	if err != nil {
		return nil, err
	}
	total := 0
	off := make([]int, n)
	for i, c := range counts {
		off[i] = total
		total += c
	}
	b := &Balancer{
		m: m, n: n, M: total, unit: unit, mU: mU, L: L,
		counts: counts, taskOff: off,
	}
	L = max(L, 1)
	b.Bound = L
	b.qw = width(n, mU, L)

	b.qptr = m.Alloc(n * b.qw)
	b.qlen = m.Alloc(n * b.qw)
	b.qcnt = m.Alloc(n)
	b.loadv = m.Alloc(n)
	// Initialization: each processor records its own descriptor. The
	// per-processor inputs (m_i and the array pointer) are private
	// knowledge per the problem statement.
	if err := m.ParDoL(n, "lb/init", func(c *machine.Ctx, i int) {
		u := machine.Word(prim.CeilDiv(counts[i], unit))
		if u > 0 {
			c.Write(b.qptr+i*b.qw, machine.Word(off[i]))
			c.Write(b.qlen+i*b.qw, u)
			c.Write(b.qcnt+i, 1)
		}
		c.Write(b.loadv+i, u)
	}); err != nil {
		return nil, err
	}
	return b, nil
}

// units returns the super-task size (1 unless the tasks number more
// than 2n), the total super-tasks mU and the maximum load L in
// super-tasks of counts, or an error on a negative count.
func units(counts []int) (unit, mU, L int, err error) {
	total := 0
	for i, c := range counts {
		if c < 0 {
			return 0, 0, 0, fmt.Errorf("loadbalance: negative count at %d", i)
		}
		total += c
	}
	unit = 1
	if total > 2*len(counts) {
		unit = prim.CeilDiv(total, len(counts))
	}
	for _, c := range counts {
		u := prim.CeilDiv(c, unit)
		mU += u
		L = max(L, u)
	}
	return unit, mU, L, nil
}

// Words returns the most shared-memory words a run over counts (New,
// then Run) has allocated at once, 0 when New would fail. Every region
// the balancer and its compactions allocate is sized by n, mU, L and
// the stage schedule, never by the data or the random draws, so a
// machine sized by Words never grows during the run.
func Words(counts []int) int {
	n := len(counts)
	_, mU, L, err := units(counts)
	if n == 0 || err != nil {
		return 0
	}
	L = max(L, 1)
	held := 2*n*qWidth(n, mU, L) + 2*n // qptr, qlen, qcnt, loadv
	peak := held
	schedule(L, func(u, wmax int) (int, error) {
		k := compactTarget(n, mU, u)
		teams := compact.OutLen(n, k)
		slots, mu := teamSlots(teams, teamSize(u, wmax), n)
		// flags and ids, then the compaction; after it its Pos and
		// output stay, joined by the three slot arrays and the pieces.
		peak = max(peak,
			held+2*n+compact.LinearCompactWords(n, k),
			held+3*n+teams+3*slots+2*mu*n)
		return mu, nil
	}, func(bound int) error {
		held += n * bound // the consolidated block stays
		peak = max(peak, held)
		return nil
	})
	return peak
}

// Run executes the full algorithm: dispersal stages while teams are
// viable, one consolidation, and a second round of stages (the paper's
// two-phase structure). On return, Bound holds the guaranteed maximum
// units per processor — a constant independent of L, so each processor
// ends with O(1 + m/n) tasks.
//
// A stage needs 4(wmax+2) <= u with wmax = 1 at the start of a phase, so
// the maximum load L decides how much runs. For L <= 36 (startU(L) <= 6)
// Run returns at once. For 37 <= L <= 121 it runs one consolidation and
// no stage, so the run charges consolidation alone; the first dispersal
// stage runs at L = 122.
func (b *Balancer) Run() error {
	bound, err := schedule(b.Bound, b.stage, b.consolidate)
	b.Bound = bound
	return err
}

// schedule is Run's control flow from the initial bound: it calls
// stage(u, wmax) for each dispersal stage, which returns the stage's
// multiplicity mu, and consolidate(bound) once between the two phases,
// and returns the final bound. Its decisions read only u, wmax, mu and
// the bound, so Words replays the schedule on the host.
func schedule(bound int, stage func(u, wmax int) (int, error), consolidate func(bound int) error) (int, error) {
	wmax := 1
	phase := 1
	u := startU(bound)
	for {
		if u <= 6 {
			break
		}
		if 4*(wmax+2) > u {
			if phase == 2 {
				break
			}
			if err := consolidate(bound); err != nil {
				return bound, err
			}
			wmax = 1
			phase = 2
			u = startU(bound)
			if u <= 6 || 4*(wmax+2) > u {
				break
			}
		}
		mu, err := stage(u, wmax)
		if err != nil {
			return bound, err
		}
		bound = min(bound, (2+4*mu)*u)
		wmax += mu
		nu := startU(bound)
		if nu >= u {
			break // no further progress possible at these sizes
		}
		u = nu
	}
	return bound, nil
}

// compactTarget is the item count k a stage with parameter u passes to
// the linear compaction: an upper bound on the overloaded processors.
func compactTarget(n, mU, u int) int {
	return prim.Min(n, prim.CeilDiv(mU, 2*u)+2)
}

// teamSlots returns the slot count of a stage whose compaction output
// holds teams cells, each a team of s slots (at least one slot), and
// its multiplicity mu: how many slots map onto each of the n
// processors.
func teamSlots(teams, s, n int) (slots, mu int) {
	slots = max(teams*s, 1)
	return slots, prim.CeilDiv(slots, n)
}

// teamSize is the number of standby processors in each overloaded
// processor's team.
func teamSize(u, wmax int) int {
	return prim.CeilDiv(u, 4) + wmax + 1
}

func startU(bound int) int {
	u := prim.ISqrt(bound)
	for u*u < bound {
		u++
	}
	if u < 4 {
		u = 4
	}
	return u
}

// unflagged and unanchored are the skip predicates of stage's anchor
// and adopt steps: a processor that is not overloaded, and a team slot
// that serves no descriptor.
func unflagged(f machine.Word) bool  { return f == 0 }
func unanchored(a machine.Word) bool { return a < 0 }

// stage runs one dispersal stage with parameter u and returns the team
// multiplicity (how many team slots were mapped onto each processor).
func (b *Balancer) stage(u, wmax int) (int, error) {
	m := b.m
	n := b.n
	s := teamSize(u, wmax)
	adopt := 4 * u // units adopted per team member
	kHat := compactTarget(n, b.mU, u)

	mark := m.Mark()
	defer m.Release(mark)

	flags := m.Alloc(n)
	ids := m.Alloc(n)
	{
		bk := m.Bulk(n, "lb/flag")
		lv := bk.ReadRange(b.loadv, n, 1, 0, 1)
		var fIdx, iIdx []int
		var ivals []machine.Word
		for i, v := range lv {
			if v >= machine.Word(2*u) {
				fIdx = append(fIdx, flags+i)
				iIdx = append(iIdx, ids+i)
				ivals = append(ivals, machine.Word(i))
			}
		}
		if t := len(fIdx); t > 0 {
			ones := bk.Vals(t)
			for j := range ones {
				ones[j] = 1
			}
			bk.Scatter(fIdx, 0, ones)
			bk.Scatter(iIdx, 0, ivals)
		}
		if err := bk.Commit(); err != nil {
			return 0, err
		}
	}

	res, err := compact.LinearCompact(m, flags, ids, n, kHat)
	if err != nil {
		return 0, err
	}
	slots, mu := teamSlots(res.OutLen, s, n)

	aptr := m.Alloc(slots)
	alen := m.Alloc(slots)
	aanch := m.Alloc(slots)
	if err := prim.FillPar(m, aanch, slots, -1); err != nil {
		return 0, err
	}

	// Owners anchor one descriptor per task subarray at the first team
	// member that will serve it, then drain themselves. O(w) operations
	// per owner.
	if err := m.ParDoGuardL(n, "lb/anchor", flags, unflagged, func(c *machine.Ctx, i int, _ machine.Word) {
		t := int(c.Read(res.Pos + i))
		if t < 0 {
			return // compaction straggler: stays overloaded, retried later
		}
		w := int(c.Read(b.qcnt + i))
		g := 0
		for e := 0; e < w; e++ {
			l := int(c.Read(b.qlen + i*b.qw + e))
			if l == 0 {
				continue
			}
			need := prim.CeilDiv(l, adopt)
			if g+need > s {
				panic("loadbalance: team exhausted (invariant violation)")
			}
			slot := t*s + g
			c.Write(aptr+slot, c.Read(b.qptr+i*b.qw+e))
			c.Write(alen+slot, machine.Word(l))
			c.Write(aanch+slot, machine.Word(slot))
			g += need
		}
		c.Write(b.qcnt+i, 0)
		c.Write(b.loadv+i, 0)
	}); err != nil {
		return 0, err
	}

	// Local broadcasting: a segmented doubling max-scan carries each
	// anchor's descriptor rightward through its team, lg s rounds of
	// constant contention (this replaces the concurrent read of the
	// owner's descriptor).
	// Each round is one descriptor step: the updating slots (condition
	// true, 8 ops) are relabeled to a leading processor span and the
	// merely-checking slots (2 ops) to the span after it, so every
	// descriptor covers a contiguous processor range and the per-processor
	// operation multiset matches the element-wise loop. Descriptor commit
	// order reproduces the scalar body's per-processor op order.
	for d := 1; d < s; d *= 2 {
		bk := m.Bulk(slots, "lb/scan")
		var updJ, updK, actJ, actK []int
		for j := d; j < slots; j++ {
			k := j - d
			if k/s != j/s {
				continue
			}
			if m.Word(aanch+k) > m.Word(aanch+j) {
				updJ = append(updJ, j)
				updK = append(updK, k)
			} else {
				actJ = append(actJ, j)
				actK = append(actK, k)
			}
		}
		at := func(base int, js []int) []int {
			out := make([]int, len(js))
			for t, j := range js {
				out[t] = base + j
			}
			return out
		}
		nU := len(updJ)
		if nU > 0 {
			aK := at(aanch, updK)
			aJ := at(aanch, updJ)
			av := bk.Gather(aK, 0) // condition read of aanch+k
			bk.Gather(aJ, 0)       // condition read of aanch+j
			bk.Gather(aK, 0)       // value read (scalar reads it again)
			bk.Scatter(aJ, 0, av)
			pv := bk.Gather(at(aptr, updK), 0)
			bk.Scatter(at(aptr, updJ), 0, pv)
			lv := bk.Gather(at(alen, updK), 0)
			bk.Scatter(at(alen, updJ), 0, lv)
		}
		if len(actJ) > 0 {
			bk.Gather(at(aanch, actK), nU)
			bk.Gather(at(aanch, actJ), nU)
		}
		if err := bk.Commit(); err != nil {
			return 0, err
		}
	}

	// Adoption: slot j serves the piece at offset (j - anchor)*adopt of
	// its descriptor and hands it to processor j mod n via a private
	// scratch cell (multiplicity mu keeps these exclusive).
	pieceP := m.Alloc(mu * n)
	pieceL := m.Alloc(mu * n)
	stride := b.unit
	if b.indirect {
		stride = 1
	}
	if err := m.ParDoGuardL(slots, "lb/adopt", aanch, unanchored, func(c *machine.Ctx, j int, a machine.Word) {
		off := (j - int(a)) * adopt
		l := int(c.Read(alen + j))
		if off >= l {
			return
		}
		take := prim.Min(adopt, l-off)
		p := j % n
		r := j / n
		c.Write(pieceP+r*n+p, c.Read(aptr+j)+machine.Word(off*stride))
		c.Write(pieceL+r*n+p, machine.Word(take))
	}); err != nil {
		return 0, err
	}

	// Append: each processor collects its (at most mu) adopted pieces
	// into its pointer array.
	if err := m.ParDoL(n, "lb/append", func(c *machine.Ctx, p int) {
		w := int(c.Read(b.qcnt + p))
		load := c.Read(b.loadv + p)
		e := 0
		for r := 0; r < mu; r++ {
			l := c.Read(pieceL + r*n + p)
			if l == 0 {
				continue
			}
			if w+e >= b.qw {
				panic("loadbalance: pointer array capacity exceeded")
			}
			c.Write(b.qptr+(p*b.qw+w+e), c.Read(pieceP+r*n+p))
			c.Write(b.qlen+(p*b.qw+w+e), l)
			load += l
			e++
		}
		if e > 0 {
			c.Write(b.qcnt+p, machine.Word(w+e))
			c.Write(b.loadv+p, load)
		}
	}); err != nil {
		return 0, err
	}
	return mu, nil
}

// consolidate has every processor sequentially flatten its pointer
// arrays into one contiguous block of super-task handles (the paper's
// "collect together all of the tasks in all of its task arrays into a
// single task array", done on handles so no task payload moves). Cost
// O(B) time, O(n*B) operations, for the current bound B.
func (b *Balancer) consolidate(B int) error {
	m := b.m
	n := b.n
	newBlk := m.Alloc(n * B)
	oldIndirect := b.indirect
	oldBlk := b.consBlk
	stride := b.unit
	if err := m.ParDoL(n, "lb/consolidate", func(c *machine.Ctx, p int) {
		w := int(c.Read(b.qcnt + p))
		idx := 0
		for e := 0; e < w; e++ {
			ptr := c.Read(b.qptr + p*b.qw + e)
			l := int(c.Read(b.qlen + p*b.qw + e))
			for h := 0; h < l; h++ {
				var start machine.Word
				if oldIndirect {
					start = c.Read(oldBlk + int(ptr) + h)
				} else {
					start = ptr + machine.Word(h*stride)
				}
				if idx >= B {
					panic("loadbalance: consolidation overflow")
				}
				c.Write(newBlk+p*B+idx, start)
				idx++
			}
		}
		if w > 0 {
			c.Write(b.qcnt+p, 1)
			c.Write(b.qptr+p*b.qw, machine.Word(p*B))
			c.Write(b.qlen+p*b.qw, machine.Word(idx))
		}
	}); err != nil {
		return err
	}
	b.indirect = true
	b.consBlk = newBlk
	b.consLen = n * B
	return nil
}

// Assignment extracts (host-side) each processor's final task ranges,
// fully resolved to input task indices.
func (b *Balancer) Assignment() [][]TaskRange {
	m := b.m
	out := make([][]TaskRange, b.n)
	for p := 0; p < b.n; p++ {
		w := int(m.Word(b.qcnt + p))
		for e := 0; e < w; e++ {
			ptr := int(m.Word(b.qptr + p*b.qw + e))
			l := int(m.Word(b.qlen + p*b.qw + e))
			for h := 0; h < l; h++ {
				var start int
				if b.indirect {
					start = int(m.Word(b.consBlk + ptr + h))
				} else {
					start = ptr + h*b.unit
				}
				out[p] = append(out[p], b.resolve(start))
			}
		}
	}
	return out
}

// resolve clips a super-task starting at task index start to its owner's
// original range (the final super-task of a processor may be partial).
func (b *Balancer) resolve(start int) TaskRange {
	i := sort.Search(len(b.taskOff), func(j int) bool { return b.taskOff[j] > start }) - 1
	end := b.taskOff[i] + b.counts[i]
	l := prim.Min(b.unit, end-start)
	return TaskRange{Start: start, Len: l}
}

// TwoHeavy returns the small-L input of the Table I load-balancing row
// and the loadbalance kernels: n processors, processor 0 holding maxLoad
// tasks and processor n/2 holding second, everyone else idle. At n = 1
// the two coincide and processor 0 holds maxLoad alone, so the maximum
// load is maxLoad at every n.
func TwoHeavy(n, maxLoad, second int) []int {
	counts := make([]int, n)
	counts[n/2] = second
	counts[0] = maxLoad
	return counts
}

// EREWBalance is the Theta(lg n) zero-contention baseline [LF80]: global
// prefix sums rank every super-task, ranks are spread across an mU-cell
// array with exclusive scatter + doubling fill, and super-task j is
// assigned to processor j / ceil(mU/n). Returns per-processor resolved
// ranges. Linear work, O(lg m) time.
func EREWBalance(m *machine.Machine, counts []int) ([][]TaskRange, error) {
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("loadbalance: no processors")
	}
	total := 0
	off := make([]int, n)
	for i, c := range counts {
		off[i] = total
		total += c
	}
	unit := 1
	if total > 2*n {
		unit = prim.CeilDiv(total, n)
	}
	loadU := make([]int, n)
	mU := 0
	for i, c := range counts {
		loadU[i] = prim.CeilDiv(c, unit)
		mU += loadU[i]
	}
	if mU == 0 {
		return make([][]TaskRange, n), nil
	}

	mark := m.Mark()
	defer m.Release(mark)
	cnts := m.Alloc(n)
	starts := m.Alloc(n)
	{
		bk := m.Bulk(n, "erewlb/loads")
		iv := bk.Vals(n)
		for i := range iv {
			iv[i] = machine.Word(loadU[i])
		}
		bk.WriteRange(cnts, n, 1, 0, 1, iv)
		if err := bk.Commit(); err != nil {
			return nil, err
		}
	}
	if _, err := prim.PrefixSums(m, cnts, starts, n); err != nil {
		return nil, err
	}

	// Scatter each processor's (start-rank, start-task, end-task) marker
	// at its first unit, then fill forward with a doubling max-scan (all
	// three sequences are monotone in the owner index, so a max-scan
	// propagates the nearest marker on the left).
	rankA := m.Alloc(mU)
	taskA := m.Alloc(mU)
	endA := m.Alloc(mU)
	if err := prim.FillPar(m, rankA, mU, -1); err != nil {
		return nil, err
	}
	// Processors with load are relabeled to a leading span; their start
	// ranks are strictly increasing, so the three marker scatters are
	// ascending over distinct cells.
	{
		bk := m.Bulk(n, "erewlb/scatter")
		sIdx := make([]int, 0, n)
		items := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if loadU[i] > 0 {
				sIdx = append(sIdx, starts+i)
				items = append(items, i)
			}
		}
		if t := len(sIdx); t > 0 {
			sv := bk.Gather(sIdx, 0)
			rIdx := make([]int, t)
			tIdx := make([]int, t)
			eIdx := make([]int, t)
			rv := bk.Vals(t)
			tv := bk.Vals(t)
			ev := bk.Vals(t)
			for q, i := range items {
				s := int(sv[q])
				rIdx[q] = rankA + s
				tIdx[q] = taskA + s
				eIdx[q] = endA + s
				rv[q] = machine.Word(s)
				tv[q] = machine.Word(off[i])
				ev[q] = machine.Word(off[i] + counts[i])
			}
			bk.Scatter(rIdx, 0, rv)
			bk.Scatter(tIdx, 0, tv)
			bk.Scatter(eIdx, 0, ev)
		}
		if err := bk.Commit(); err != nil {
			return nil, err
		}
	}
	// Each doubling round publishes the arrays into shadows and then has
	// cell j read only its own cells plus the shadow at j-d, keeping
	// every cell at one reader per step (EREW-legal).
	shR := m.Alloc(mU)
	shT := m.Alloc(mU)
	shE := m.Alloc(mU)
	for d := 1; d < mU; d *= 2 {
		{
			bk := m.Bulk(mU, "erewlb/publish")
			for _, sh := range [][2]int{{rankA, shR}, {taskA, shT}, {endA, shE}} {
				v := bk.ReadRange(sh[0], mU, 1, 0, 1)
				copy(bk.WriteInPlace(sh[1], mU, 0, 1), v)
			}
			if err := bk.Commit(); err != nil {
				return nil, err
			}
		}
		// Same relabeling as lb/scan: updating cells first, then the
		// cells that only evaluate the condition.
		bk := m.Bulk(mU, "erewlb/fill")
		var updJ, actJ []int
		for j := d; j < mU; j++ {
			if m.Word(shR+j-d) > m.Word(rankA+j) {
				updJ = append(updJ, j)
			} else {
				actJ = append(actJ, j)
			}
		}
		at := func(base, delta int, js []int) []int {
			out := make([]int, len(js))
			for t, j := range js {
				out[t] = base + j - delta
			}
			return out
		}
		nU := len(updJ)
		if nU > 0 {
			sK := at(shR, d, updJ)
			rJ := at(rankA, 0, updJ)
			sv := bk.Gather(sK, 0) // condition read of shR+k
			bk.Gather(rJ, 0)       // condition read of rankA+j
			bk.Gather(sK, 0)       // value read (scalar reads it again)
			bk.Scatter(rJ, 0, sv)
			tv := bk.Gather(at(shT, d, updJ), 0)
			bk.Scatter(at(taskA, 0, updJ), 0, tv)
			ev := bk.Gather(at(shE, d, updJ), 0)
			bk.Scatter(at(endA, 0, updJ), 0, ev)
		}
		if len(actJ) > 0 {
			bk.Gather(at(shR, d, actJ), nU)
			bk.Gather(at(rankA, 0, actJ), nU)
		}
		if err := bk.Commit(); err != nil {
			return nil, err
		}
	}

	// Unit j belongs to processor j/b; the scan gave every unit its
	// owner's descriptor, so the resolution is a constant number of
	// exclusive reads.
	bsz := prim.CeilDiv(mU, n)
	outP := m.Alloc(n * bsz)
	outL := m.Alloc(n * bsz)
	// Unit j's output cell q*bsz+r is just j again, so the two scatters
	// collapse to contiguous range writes.
	{
		bk := m.Bulk(mU, "erewlb/emit")
		rv := bk.ReadRange(rankA, mU, 1, 0, 1)
		tv := bk.ReadRange(taskA, mU, 1, 0, 1)
		ev := bk.ReadRange(endA, mU, 1, 0, 1)
		pv := bk.Vals(mU)
		lv := bk.Vals(mU)
		for j := 0; j < mU; j++ {
			s := int(rv[j])
			start := int(tv[j]) + (j-s)*unit
			pv[j] = machine.Word(start)
			lv[j] = machine.Word(prim.Min(unit, int(ev[j])-start))
		}
		bk.WriteRange(outP, mU, 1, 0, 1, pv)
		bk.WriteRange(outL, mU, 1, 0, 1, lv)
		if err := bk.Commit(); err != nil {
			return nil, err
		}
	}

	out := make([][]TaskRange, n)
	for q := 0; q < n; q++ {
		for r := 0; r < bsz; r++ {
			j := q*bsz + r
			if j >= mU {
				break
			}
			out[q] = append(out[q], TaskRange{
				Start: int(m.Word(outP + q*bsz + r)),
				Len:   int(m.Word(outL + q*bsz + r)),
			})
		}
	}
	return out, nil
}
