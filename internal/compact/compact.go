// Package compact implements linear compaction (Section 4
// preliminaries of the paper) on the PRAM simulator: move the contents
// of the k nonzero cells of an n-cell array (k known, positions unknown)
// into an output array of size O(k), each item in a private cell.
//
// The QRQW algorithm reconstructs the O(sqrt(lg n))-time linear
// compaction of [GMR96a] that the paper invokes (Sections 3 and 5): items
// are spread by dart throwing into a staging array large enough that
// per-cell contention is O(sqrt(lg n)) w.h.p. ("using larger arrays into
// which processors are compacted, so as to reduce the size of collision
// sets", Section 1.2), and then ranked within staging segments of size
// 2^(2f) by a depth-2f tree walk, which assigns each item a private cell
// in an O(k)-cell output. Running time is O(sqrt(lg n)) w.h.p.; the
// staging array makes the operation count O(k * 2^sqrt(lg n)) — a
// subpolynomial work overhead of this reconstruction, documented in
// DESIGN.md (the time bounds, which drive every experiment, match the
// paper).
//
// The EREW baseline (prefix-sums packing, Theta(lg n) time) is provided
// for the Table I comparisons.
package compact

import (
	"fmt"
	"slices"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// Result describes where the compacted items landed.
type Result struct {
	// Out is the base of the output region; OutLen is its size: at
	// most 14k-4 cells for k >= 2 (the load balancer's width bound
	// relies on this). Occupied cells hold the item values; empty cells
	// hold the sentinel Empty.
	Out    int
	OutLen int
	// Pos is the base of an n-cell region giving, for each input index
	// holding an item, the offset of its private cell within Out
	// (cells of non-items hold -1).
	Pos int
	// Placed is the number of items placed (always k for a successful
	// Las Vegas run).
	Placed int
}

// Empty is the sentinel stored in unoccupied output cells.
const Empty machine.Word = -(1 << 62)

// sqrtLog returns f = ceil(sqrt(lg n)) >= 1.
func sqrtLog(n int) int {
	if n < 2 {
		return 1
	}
	f := prim.ISqrt(prim.CeilLog2(n))
	for f*f < prim.CeilLog2(n) {
		f++
	}
	if f < 1 {
		f = 1
	}
	return f
}

// LinearCompact moves the values of the nonzero cells of the n-cell
// region at flags (k of them, k known) into an O(k)-size output array,
// each in a private cell. vals is an n-cell region holding the item
// payloads. Runs in O(sqrt(lg n)) time w.h.p. on a QRQW machine.
//
// The algorithm is Las Vegas: if (with polynomially small probability)
// the randomized phases leave items unplaced, a designated processor
// finishes the job sequentially, and the extra cost is charged to the
// machine.
func LinearCompact(m *machine.Machine, flags, vals, n, k int) (Result, error) {
	if k < 0 || n < 0 {
		panic("compact: negative size")
	}
	pos := m.Alloc(n)
	if err := prim.FillPar(m, pos, n, -1); err != nil {
		return Result{}, err
	}
	if k == 0 {
		return Result{Out: m.Alloc(0), OutLen: 0, Pos: pos}, nil
	}

	return linearCompactImpl(m, flags, vals, n, k, pos)
}

// maxStage caps the staging-array size (words) so that very large
// instances degrade gracefully in contention instead of exhausting host
// memory.
const maxStage = 1 << 22

// layout is LinearCompact's geometry for n cells holding k >= 1 items:
// g darts per item, and a staging array of stageLen cells cut into
// segments of segSize cells, each owning blockSize output cells, outLen
// in all. It depends on n and k alone, so the words a compaction
// allocates do too.
type layout struct {
	g, stageLen, segSize, blockSize, outLen int
}

func newLayout(n, k int) layout {
	f := sqrtLog(n)
	g := (3*f + 1) / 2 // darts per item; failure prob ~ 2^(-f*g) <= n^(-1.5)
	stageLen := prim.NextPow2(2*g*k) << uint(f)
	if stageLen > maxStage {
		stageLen = prim.Max(maxStage, prim.NextPow2(4*k))
	}
	// Segments are at least 2^(2f) cells (so the rank-tree depth stays
	// O(f)) and large enough that each expects >= 2 items, which keeps
	// the per-segment headroom summing to O(k) output cells. Either one
	// segment spans the stage, or segSize >= 2*stageLen/k and so
	// segs <= k/2; the output, segs*(4*ceil(k/segs)+16) <= 4k+20*segs-4
	// cells, is then at most 14k-4 for every k >= 2 (Result.OutLen).
	segSize := 1 << uint(2*f)
	if want := prim.NextPow2(prim.CeilDiv(2*stageLen, k)); want > segSize {
		segSize = want
	}
	segSize = prim.Min(segSize, stageLen)
	segs := stageLen / segSize
	// Expected items per segment; block size leaves enough headroom that
	// overflow probability is negligible (P[X >= blockSize] <= (eE/b)^b).
	blockSize := 4*prim.CeilDiv(k, segs) + 16
	return layout{g: g, stageLen: stageLen, segSize: segSize, blockSize: blockSize, outLen: segs * blockSize}
}

// OutLen is the Result.OutLen of LinearCompact over n cells holding k
// items.
func OutLen(n, k int) int {
	if k == 0 {
		return 0
	}
	return newLayout(n, k).outLen
}

// LinearCompactWords is the most shared-memory words LinearCompact over
// n cells holding k items has allocated at once: the n-cell Pos region,
// and while it runs the staging array, its rank tree, the per-item
// staging slots, the output and one cleanup flag. On return it holds
// n + OutLen(n, k) of them.
func LinearCompactWords(n, k int) int {
	if k == 0 {
		return n
	}
	l := newLayout(n, k)
	return 2*n + 3*l.stageLen + l.outLen + 1
}

// unflagged is the dart steps' skip predicate: an item whose flag is
// zero takes no part.
func unflagged(f machine.Word) bool { return f == 0 }

// linearCompactImpl is the real implementation; see LinearCompact.
func linearCompactImpl(m *machine.Machine, flags, vals, n, k int, pos int) (Result, error) {
	l := newLayout(n, k)
	g, stageLen, segSize, blockSize, outLen := l.g, l.stageLen, l.segSize, l.blockSize, l.outLen

	mark := m.Mark()
	stage := m.Alloc(stageLen) // 0 = free, otherwise itemIndex+1
	slot := m.Alloc(n)         // staging cell finally held by item i, or -1
	rankTree := m.Alloc(2 * stageLen)
	out := m.Alloc(outLen)
	if err := prim.FillPar(m, out, outLen, Empty); err != nil {
		return Result{}, err
	}
	if err := prim.FillPar(m, slot, n, -1); err != nil {
		return Result{}, err
	}

	// Step 1 (m = g): every item writes its tag into g random staging
	// cells. The targets are not stored: they are replayed from the
	// step-keyed random stream in the next step.
	throwStep := m.StepCount() + 1
	if err := m.ParDoGuardL(n, "lincompact/throw", flags, unflagged, func(c *machine.Ctx, i int, _ machine.Word) {
		rng := c.Rand()
		for j := 0; j < g; j++ {
			c.Write(stage+rng.Intn(stageLen), machine.Word(i)+1)
		}
	}); err != nil {
		return Result{}, err
	}

	// Step 2 (m = g+1): replay the darts; keep the first cell that still
	// holds our tag, release the other cells we won (the writes land
	// after all reads of the step, so no winner's cell is clobbered).
	if err := m.ParDoGuardL(n, "lincompact/verify", flags, unflagged, func(c *machine.Ctx, i int, _ machine.Word) {
		rng := xrand.StreamFrom(c.SeedFor(throwStep, i))
		keep := -1
		for j := 0; j < g; j++ {
			t := rng.Intn(stageLen)
			if c.Read(stage+t) == machine.Word(i)+1 {
				if keep < 0 {
					keep = t
				} else if t != keep {
					c.Write(stage+t, 0)
				}
			}
		}
		c.Write(slot+i, machine.Word(keep))
	}); err != nil {
		return Result{}, err
	}

	// Step 4: rank occupied cells within each staging segment by a
	// depth-2f tree (segment-local exclusive prefix counts). Leaves are
	// the occupancy indicators.
	{
		b := m.Bulk(stageLen, "lincompact/rank-load")
		sv := b.ReadRange(stage, stageLen, 1, 0, 1)
		iw := b.Vals(stageLen)
		for i, v := range sv {
			if v != 0 {
				iw[i] = 1
			} else {
				iw[i] = 0
			}
		}
		b.WriteRange(rankTree+stageLen, stageLen, 1, 0, 1, iw)
		if err := b.Commit(); err != nil {
			return Result{}, err
		}
	}
	// Up-sweep restricted to segment subtrees: 2f levels. Children of
	// level width occupy the contiguous block [2*width, 4*width), so a
	// two-cells-per-processor descriptor covers each round.
	levels := prim.CeilLog2(segSize)
	for l := 1; l <= levels; l++ {
		width := stageLen >> uint(l)
		b := m.Bulk(width, "lincompact/rank-up")
		ch := b.ReadRange(rankTree+2*width, 2*width, 1, 0, 2)
		sums := b.Vals(width)
		for i := 0; i < width; i++ {
			sums[i] = ch[2*i] + ch[2*i+1]
		}
		b.WriteRange(rankTree+width, width, 1, 0, 1, sums)
		if err := b.Commit(); err != nil {
			return Result{}, err
		}
	}
	// Down-sweep from segment roots: node value becomes the count of
	// occupied leaves strictly left of the node within its segment.
	rootWidth := stageLen >> uint(levels)
	{
		b := m.Bulk(rootWidth, "lincompact/rank-roots")
		b.FillRange(rankTree+rootWidth, rootWidth, 1, 0, 1, 0)
		if err := b.Commit(); err != nil {
			return Result{}, err
		}
	}
	for l := levels - 1; l >= 0; l-- {
		width := stageLen >> uint(l)
		half := width / 2
		b := m.Bulk(half, "lincompact/rank-down")
		pre := b.ReadRange(rankTree+half, half, 1, 0, 1)
		left := b.ReadRange(rankTree+width, half, 2, 0, 1)
		out := b.Vals(width)
		for i := 0; i < half; i++ {
			out[2*i] = pre[i]
			out[2*i+1] = pre[i] + left[i]
		}
		b.WriteRange(rankTree+width, width, 1, 0, 2, out)
		if err := b.Commit(); err != nil {
			return Result{}, err
		}
	}

	// Step 5: each placed item reads its in-segment rank and moves to
	// its private output cell; overflow or unplaced items (w.h.p. none)
	// raise a flag for the sequential cleanup.
	// Step 5 as descriptors. Processor groups are laid out placed |
	// overflow | unplaced | non-item so that every class's descriptors
	// cover a contiguous processor span and the per-processor operation
	// multiset matches the element-wise loop exactly (6/5/3/1 ops).
	needCleanup := m.Alloc(1)
	{
		b := m.Bulk(n, "lincompact/place")
		fv := b.ReadRange(flags, n, 1, 0, 1)
		slotIdx := make([]int, 0, k)
		items := make([]int, 0, k)
		for i, f := range fv {
			if f != 0 {
				slotIdx = append(slotIdx, slot+i)
				items = append(items, i)
			}
		}
		var sv []machine.Word
		if len(slotIdx) > 0 {
			sv = b.Gather(slotIdx, 0)
		}
		var placedI, overflowI, unplacedI []int
		var placedP []int
		for t, i := range items {
			s := int(sv[t])
			if s < 0 {
				unplacedI = append(unplacedI, i)
				continue
			}
			rank := int(m.Word(rankTree + stageLen + s))
			if rank >= blockSize {
				overflowI = append(overflowI, i)
				continue
			}
			placedI = append(placedI, i)
			placedP = append(placedP, (s/segSize)*blockSize+rank)
		}
		nPl, nOv := len(placedI), len(overflowI)
		// Rank reads: every item whose slot is >= 0, i.e. the placed and
		// overflow groups. The cells are distinct (each staging cell has a
		// unique winner), so any processor assignment yields the same
		// per-cell contention; the values were read host-side above.
		rankIdx := make([]int, 0, nPl+nOv)
		for t := range items {
			if s := int(sv[t]); s >= 0 {
				rankIdx = append(rankIdx, rankTree+stageLen+s)
			}
		}
		if len(rankIdx) > 0 {
			b.Gather(rankIdx, 0)
		}
		if nPl > 0 {
			valIdx := make([]int, nPl)
			outIdx := make([]int, nPl)
			posIdx := make([]int, nPl)
			pw := b.Vals(nPl)
			for t, i := range placedI {
				valIdx[t] = vals + i
				outIdx[t] = out + placedP[t]
				posIdx[t] = pos + i
				pw[t] = machine.Word(placedP[t])
			}
			ov := b.Gather(valIdx, 0)
			b.Scatter(outIdx, 0, ov)
			b.Scatter(posIdx, 0, pw)
		}
		// The unplaced and overflow processors raise the cleanup flag:
		// one list repeating the flag cell, which always expands, so the
		// step charges the flag's real write contention.
		if u := len(unplacedI) + nOv; u > 0 {
			ones := b.Vals(u)
			for t := range ones {
				ones[t] = 1
			}
			b.Scatter(slices.Repeat([]int{needCleanup}, u), nPl, ones)
		}
		if nOv > 0 {
			ovIdx := make([]int, nOv)
			mv := b.Vals(nOv)
			for t, i := range overflowI {
				ovIdx[t] = slot + i
				mv[t] = -1
			}
			b.Scatter(ovIdx, nPl, mv)
		}
		if err := b.Commit(); err != nil {
			return Result{}, err
		}
	}

	placed := k
	if m.Word(needCleanup) != 0 {
		// Las Vegas cleanup: one processor sweeps the input and places
		// stragglers into free output cells sequentially. Charged
		// honestly; occurs with polynomially small probability.
		if err := m.ParDoL(1, "lincompact/cleanup", func(c *machine.Ctx, i int) {
			free := 0
			for j := 0; j < n; j++ {
				if c.Read(flags+j) == 0 || c.Read(pos+j) >= 0 {
					continue
				}
				for free < outLen && c.Read(out+free) != Empty {
					free++
				}
				if free == outLen {
					panic("compact: output overflow (outLen not O(k)?)")
				}
				c.Write(out+free, c.Read(vals+j))
				c.Write(pos+j, machine.Word(free))
				free++
			}
		}); err != nil {
			return Result{}, err
		}
	}

	// Release the staging scratch but keep out (it sits above stage in
	// the allocation order, so it must be copied below the mark first).
	final := relocate(m, mark, out, outLen)
	// pos entries are offsets into out and remain valid after the move.
	return Result{Out: final, OutLen: outLen, Pos: pos, Placed: placed}, nil
}

// relocate copies the region [src, src+n) to the watermark mark,
// releasing everything above it. Host-side bookkeeping (the data movement
// was already paid for by the algorithm's steps; this is an address-space
// adjustment of the simulator, not a PRAM operation).
func relocate(m *machine.Machine, mark, src, n int) int {
	tmp := m.LoadWords(src, n)
	m.Release(mark)
	dst := m.Alloc(n)
	m.Store(dst, tmp)
	return dst
}

// EREWCompact is the zero-contention baseline: prefix-sums packing in
// Theta(lg n) time and linear work (the classical EREW solution the
// paper compares against).
func EREWCompact(m *machine.Machine, flags, vals, n, k int) (int, error) {
	out := m.Alloc(prim.Max(k, 1))
	got, err := prim.Pack(m, flags, vals, out, n)
	if err != nil {
		return 0, err
	}
	if got != k {
		return 0, fmt.Errorf("compact: EREWCompact found %d items, caller claimed %d", got, k)
	}
	return out, nil
}
