// Package multicompact implements Section 4 of the paper: the multiple
// compaction problem. n items carry a label partitioning them into sets;
// each set 8_j has a known count upper bound n_j and a private output
// subarray of size 4*n_j. Every item must move to a private cell of its
// set's subarray. The paper gives an O(lg n)-time, linear-work QRQW
// algorithm; it is the engine of the distributive sort of Section 7
// (Theorem 7.1).
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
package multicompact

import (
	"fmt"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// Input describes a multiple-compaction instance resident on a machine.
// Per the paper's problem statement, every item carries its own label,
// count and pointer fields (ILabels/ICounts/IPtrs are n-cell per-item
// regions); the per-set arrays Counts/Ptrs are additional metadata that
// DistributiveSort's finishing step reads.
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

// placed is the dart steps' skip predicate: an item whose position is
// set is done.
func placed(pos machine.Word) bool { return pos >= 0 }

// Run solves the instance in O(lg n) time and near-linear work w.h.p.
// on a QRQW machine. Every item ends in a private cell of its set's
// subarray (B[cell] = item index + 1).
func Run(m *machine.Machine, in Input) (Result, error) {
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
			return Result{}, fmt.Errorf("multicompact: did not converge after %d rounds", round)
		}
		qq := q
		throwStep := m.StepCount() + 1
		// Throw: q darts into free cells of the item's subarray. A cell
		// holding any value is occupied ("fails if there is already a
		// value written from a previous step").
		if err := m.ParDoGuardL(n, "mc/throw", pos, placed, func(c *machine.Ctx, i int, _ machine.Word) {
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
		if err := m.ParDoGuardL(n, "mc/verify", pos, placed, func(c *machine.Ctx, i int, _ machine.Word) {
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
