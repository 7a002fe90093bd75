package perm

import (
	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// maxCyclicArray caps the oversized dart array so large n degrades in
// contention instead of host memory.
const maxCyclicArray = 1 << 22

// claimed is claimRound's skip predicate: an item whose slot is set is
// done.
func claimed(slot machine.Word) bool { return slot >= 0 }

// claimRound lets every active item (slot[i] < 0) throw g darts into the
// aLen-cell array at a, claiming at most one free cell. A claim succeeds
// only if no other item targeted the same cell in this round — colliding
// cells are dirtied and then reset to free, so the placement is unbiased
// (Section 5.1's write/read/write/read protocol, extended to g darts).
// Cells occupied by earlier rounds are never touched: each item records
// which of its targets were free in a per-item bitmask.
//
// Three QRQW steps of O(g) operations each; contention is the max
// per-cell dart count.
func claimRound(m *machine.Machine, a, aLen, slot, freeMask, n, g int) error {
	if g > 62 {
		panic("perm: claimRound with more than 62 darts")
	}
	throwStep := m.StepCount() + 1
	// T: throw at free cells, remember which targets were free.
	if err := m.ParDoGuardL(n, "claim/throw", slot, claimed, func(c *machine.Ctx, i int, _ machine.Word) {
		rng := c.Rand()
		mask := machine.Word(0)
		for j := 0; j < g; j++ {
			t := rng.Intn(aLen)
			if c.Read(a+t) == 0 {
				mask |= 1 << uint(j)
				c.Write(a+t, machine.Word(i)+1)
			}
		}
		c.Write(freeMask+i, mask)
	}); err != nil {
		return err
	}
	// V: replay; losers of an arbitration dirty the cell so that the
	// arbitration winner also fails.
	if err := m.ParDoGuardL(n, "claim/mark", slot, claimed, func(c *machine.Ctx, i int, _ machine.Word) {
		mask := c.Read(freeMask + i)
		rng := xrand.StreamFrom(c.SeedFor(throwStep, i))
		for j := 0; j < g; j++ {
			t := rng.Intn(aLen)
			if mask&(1<<uint(j)) == 0 {
				continue
			}
			if c.Read(a+t) != machine.Word(i)+1 {
				c.Write(a+t, dirty)
			}
		}
	}); err != nil {
		return err
	}
	// C: confirm; keep the first clean win, release other wins, and
	// reset dirty cells to free.
	return m.ParDoGuardL(n, "claim/confirm", slot, claimed, func(c *machine.Ctx, i int, _ machine.Word) {
		mask := c.Read(freeMask + i)
		rng := xrand.StreamFrom(c.SeedFor(throwStep, i))
		keep := -1
		for j := 0; j < g; j++ {
			t := rng.Intn(aLen)
			if mask&(1<<uint(j)) == 0 {
				continue
			}
			v := c.Read(a + t)
			if v == machine.Word(i)+1 {
				if keep < 0 {
					keep = t
				} else if t != keep {
					c.Write(a+t, 0)
				}
			} else if v == dirty {
				c.Write(a+t, 0) // all claimants reset; same value, no bias
			}
		}
		c.Write(slot+i, machine.Word(keep))
	})
}

// successorWalk finds, for every item placed in the aLen-cell array at a
// (value item+1), its cyclic successor in array order, writing it to the
// n-cell region at succ. It walks a binary tree for just enough levels
// that every surviving node holds ~2 lg n expected items (so w.h.p. none
// is empty — the paper's 2cf-level truncation), maintaining per-subtree
// leftmost/rightmost items and linking across sibling boundaries, then
// links adjacent top-level nodes with wrap-around in one step. If a
// top-level node is empty (polynomially rare), the bad flag is raised
// and the caller falls back to a sequential stitch.
func successorWalk(m *machine.Machine, a, aLen, succ, bad, n int) error {
	mark := m.Mark()
	defer m.Release(mark)
	lm := m.Alloc(aLen)
	rm := m.Alloc(aLen)
	if err := m.ParDoL(aLen, "cyclic/leaves", func(c *machine.Ctx, j int) {
		v := c.Read(a + j)
		if v < 0 {
			v = 0
		}
		c.Write(lm+j, v)
		c.Write(rm+j, v)
	}); err != nil {
		return err
	}
	lgn := prim.Max(2, prim.CeilLog2(n+1))
	levels := prim.CeilLog2(prim.CeilDiv(2*lgn*aLen, prim.Max(1, n)))
	if max := prim.CeilLog2(aLen); levels > max {
		levels = max
	}
	width := aLen
	for l := 0; l < levels; l++ {
		width /= 2
		if err := m.ParDoL(width, "cyclic/merge", func(c *machine.Ctx, j int) {
			lL, lR := c.Read(lm+2*j), c.Read(rm+2*j)
			rL, rR := c.Read(lm+2*j+1), c.Read(rm+2*j+1)
			if lR > 0 && rL > 0 {
				c.Write(succ+int(lR-1), rL-1)
			}
			nl, nr := lL, rR
			if nl == 0 {
				nl = rL
			}
			if nr == 0 {
				nr = lR
			}
			c.Write(lm+j, nl)
			c.Write(rm+j, nr)
		}); err != nil {
			return err
		}
	}
	// Link adjacent top-level nodes (wrap-around closes the cycle).
	topW := width
	return m.ParDoL(topW, "cyclic/top", func(c *machine.Ctx, j int) {
		r := c.Read(rm + j)
		l := c.Read(lm + (j+1)%topW)
		if topW == 1 {
			l = c.Read(lm + j)
		}
		if r == 0 || l == 0 {
			c.Write(bad, 1)
			return
		}
		c.Write(succ+int(r-1), l-1)
	})
}

// sequentialStitch recomputes every successor with one processor's
// sweep of the array — the Las Vegas fallback when the truncated walk
// hit an empty top-level node.
func sequentialStitch(m *machine.Machine, a, aLen, succ int) error {
	return m.ParDoL(1, "cyclic/stitch", func(c *machine.Ctx, _ int) {
		first, prev := -1, -1
		for t := 0; t < aLen; t++ {
			v := c.Read(a + t)
			if v <= 0 {
				continue
			}
			it := int(v - 1)
			if prev >= 0 {
				c.Write(succ+prev, machine.Word(it))
			} else {
				first = it
			}
			prev = it
		}
		if prev >= 0 && first >= 0 {
			c.Write(succ+prev, machine.Word(first))
		}
	})
}

// CyclicFast generates a uniformly random *cyclic* permutation of [0, n)
// with the n-processor O(sqrt(lg n))-time algorithm of Theorem 5.2 and
// returns the base of an n-cell region S with S[i] = successor of i.
//
// Every item claims a cell of an ~n*2f*2^(f-1)-cell array (f =
// ceil(sqrt(lg n))) by throwing 2f darts — w.h.p. each item wins at
// least one cell at contention O(f) — and successors are found by the
// binary-tree walk of Section 5.1.2. The walk is O(lg(aLen)) = O(f +
// lg n/f)-level in this reconstruction; the paper truncates it at 2cf
// levels and stitches across subtrees, which our root-level closing
// performs in one pass (the truncation saves only lower-order time on
// the simulator). The relative order of items around the array gives the
// cycle.
//
// Las Vegas: unplaced items (polynomially rare) are finished by a
// designated sequential processor, charged to the machine.
func CyclicFast(m *machine.Machine, n int) (int, error) {
	if n <= 0 {
		panic("perm: CyclicFast with non-positive n")
	}
	succ := m.Alloc(n)
	f := 1
	for f*f < prim.CeilLog2(n+1) {
		f++
	}
	g := prim.Min(2*f, 24)
	aLen := prim.NextPow2(n*g) << uint(prim.Max(0, f-1))
	if aLen > maxCyclicArray {
		aLen = prim.Max(maxCyclicArray, prim.NextPow2(4*n))
	}

	mark := m.Mark()
	defer m.Release(mark)
	a := m.Alloc(aLen)
	slot := m.Alloc(n)
	freeMask := m.Alloc(n)
	bad := m.Alloc(1)
	if err := prim.FillPar(m, slot, n, -1); err != nil {
		return 0, err
	}
	if err := prim.FillPar(m, succ, n, -1); err != nil {
		return 0, err
	}
	if err := claimRound(m, a, aLen, slot, freeMask, n, g); err != nil {
		return 0, err
	}
	// Any unplaced item triggers the sequential completion.
	if err := m.ParDoL(n, "cyclic/check", func(c *machine.Ctx, i int) {
		if c.Read(slot+i) < 0 {
			c.Write(bad, 1)
		}
	}); err != nil {
		return 0, err
	}
	if m.Word(bad) != 0 {
		if err := sequentialPlace(m, a, aLen, slot, n); err != nil {
			return 0, err
		}
		m.SetWord(bad, 0)
	}
	if err := successorWalk(m, a, aLen, succ, bad, n); err != nil {
		return 0, err
	}
	if m.Word(bad) != 0 {
		if err := sequentialStitch(m, a, aLen, succ); err != nil {
			return 0, err
		}
	}
	return succ, nil
}

// sequentialPlace is the Las Vegas completion of Theorem 5.2: a single
// designated processor places every remaining item into random free
// cells. Charged to the machine; occurs with polynomially small
// probability.
func sequentialPlace(m *machine.Machine, a, aLen, slot, n int) error {
	return m.ParDoL(1, "cyclic/seqplace", func(c *machine.Ctx, _ int) {
		rng := c.Rand()
		for i := 0; i < n; i++ {
			if c.Read(slot+i) >= 0 {
				continue
			}
			for {
				t := rng.Intn(aLen)
				if c.Read(a+t) == 0 {
					c.Write(a+t, machine.Word(i)+1)
					c.Write(slot+i, machine.Word(t))
					break
				}
			}
		}
	})
}

// CycleRepresentation decomposes a permutation (as an image/successor
// slice) into its cycles, smallest unvisited element first — the
// representation illustrated in Figure 1.
func CycleRepresentation(p []int) [][]int {
	seen := make([]bool, len(p))
	var cycles [][]int
	for i := range p {
		if seen[i] {
			continue
		}
		var cyc []int
		for j := i; !seen[j]; j = p[j] {
			seen[j] = true
			cyc = append(cyc, j)
		}
		cycles = append(cycles, cyc)
	}
	return cycles
}

// IsCyclic reports whether p is a permutation consisting of a single
// n-cycle.
func IsCyclic(p []int) bool {
	if len(p) == 0 {
		return false
	}
	return IsPermutation(p) && len(CycleRepresentation(p)) == 1
}

// IsPermutation reports whether p is a permutation of [0, len(p)).
func IsPermutation(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
