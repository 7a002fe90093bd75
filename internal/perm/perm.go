// Package perm implements Section 5 of the paper: generating random
// permutations and random cyclic permutations.
//
// Three algorithms compete in the paper's MasPar experiment (Table II):
//
//   - Random: the QRQW dart-throwing algorithm of Theorem 5.1 (adapted
//     from Gil's renaming algorithm) — O(lg n) time, linear work w.h.p.
//   - ScanDart: dart throwing with per-round scan-based compaction (the
//     "dart-throwing with scans" contender).
//   - SortingBased: the popular EREW algorithm — draw random keys, sort
//     them (bitonic, as on the MasPar), rank = permutation.
//
// CyclicFast implements the O(sqrt(lg n))-time random cyclic permutation
// of Theorem 5.2 (dart throwing into an oversized array, successors by a
// bounded binary-tree walk). Cycle-representation helpers reproduce
// Figure 1.
package perm

import (
	"fmt"
	"slices"

	"lowcontend/internal/machine"
	"lowcontend/internal/prim"
)

// dirty marks an array cell on which a write collision occurred; per the
// protocol of Section 5.1, every colliding claim fails, so the cell hosts
// nobody (this is what keeps the permutation unbiased).
const dirty machine.Word = -7

// maxRestarts bounds Las Vegas restarts before giving up (the per-run
// failure probability is polynomially small, so hitting this is a bug).
const maxRestarts = 100

// Random generates a uniformly random permutation of [0, n) with the
// QRQW dart-throwing algorithm of Theorem 5.1 and returns the base of an
// n-cell region P with P[rank] = item. O(lg n) time and linear work
// w.h.p. on a QRQW machine.
//
// Round r lets every unplaced item claim a random cell of a fresh
// subarray (sizes 2n, n, n/2, ...); a claim succeeds only if no other
// item targeted the same cell in the round (write, read back, colliders
// mark the cell dirty, survivors confirm), so arbitration cannot bias the
// permutation. After O(lg lg n) rounds all items are placed w.h.p., and
// one prefix-sums compaction of the subarrays yields the explicit
// permutation.
func Random(m *machine.Machine, n int) (int, error) {
	if n <= 0 {
		panic("perm: Random with non-positive n")
	}
	out := m.Alloc(n)
	sizes, total := dartSubarrays(n)

	for attempt := 0; attempt < maxRestarts; attempt++ {
		mark := m.Mark()
		a := m.Alloc(total)  // 0 free, item+1 placed, dirty on collision
		status := m.Alloc(n) // cell index in A claimed by item i, or -1
		choice := m.Alloc(n) // this round's dart target
		unplaced := m.Alloc(1)
		if err := prim.FillPar(m, status, n, -1); err != nil {
			return 0, err
		}
		off := 0
		// Per-round host scratch. The active-item lists are ascending in
		// item id, so descriptor processor p is the p-th active item:
		// write arbitration (highest processor wins) picks the same
		// winner as the per-item loop, and Bulk.Rand(item) replays each
		// item's private stream.
		actIdx := make([]int, 0, n)
		tgtIdx := make([]int, 0, n)
		scratch := make([]machine.Word, 0, n)
		// hit holds each step's third list (lost darts, winners, the
		// emitted ranks): one step commits before the next refills it.
		hit := make([]int, 0, n)
		for _, subLen := range sizes {
			sub := off
			off += subLen
			// Throw.
			{
				b := m.Bulk(n, "perm/throw")
				sv := b.ReadRange(status, n, 1, 0, 1)
				actIdx, tgtIdx = actIdx[:0], tgtIdx[:0]
				scratch = scratch[:0]
				for i, s := range sv {
					if s >= 0 {
						continue
					}
					rs := b.Rand(i)
					t := sub + rs.Intn(subLen)
					actIdx = append(actIdx, choice+i)
					tgtIdx = append(tgtIdx, a+t)
					scratch = append(scratch, machine.Word(i)+1)
				}
				if len(actIdx) > 0 {
					cv := b.Vals(len(actIdx))
					for p, at := range tgtIdx {
						cv[p] = machine.Word(at - a)
					}
					b.Scatter(tgtIdx, 0, scratch)
					b.Scatter(actIdx, 0, cv)
				}
				if err := b.Commit(); err != nil {
					return 0, err
				}
			}
			// Read back; losers dirty the cell so the arbitration
			// winner also fails (unbiasedness).
			{
				b := m.Bulk(n, "perm/verify")
				sv := b.ReadRange(status, n, 1, 0, 1)
				actIdx, tgtIdx = actIdx[:0], tgtIdx[:0]
				for i, s := range sv {
					if s >= 0 {
						continue
					}
					actIdx = append(actIdx, choice+i)
				}
				if len(actIdx) > 0 {
					cv := b.Gather(actIdx, 0)
					for _, t := range cv {
						tgtIdx = append(tgtIdx, a+int(t))
					}
					av := b.Gather(tgtIdx, 0)
					lost := hit[:0]
					for p, at := range tgtIdx {
						if av[p] != machine.Word(actIdx[p]-choice)+1 {
							lost = append(lost, at)
						}
					}
					if len(lost) > 0 {
						dv := b.Vals(len(lost))
						for p := range dv {
							dv[p] = dirty
						}
						b.Scatter(lost, 0, dv)
					}
				}
				if err := b.Commit(); err != nil {
					return 0, err
				}
			}
			// Confirm.
			{
				b := m.Bulk(n, "perm/confirm")
				sv := b.ReadRange(status, n, 1, 0, 1)
				actIdx, tgtIdx = actIdx[:0], tgtIdx[:0]
				for i, s := range sv {
					if s >= 0 {
						continue
					}
					actIdx = append(actIdx, choice+i)
				}
				if len(actIdx) > 0 {
					cv := b.Gather(actIdx, 0)
					for _, t := range cv {
						tgtIdx = append(tgtIdx, a+int(t))
					}
					av := b.Gather(tgtIdx, 0)
					winIdx := hit[:0]
					wv := b.Vals(len(actIdx))
					wi := 0
					for p := range tgtIdx {
						item := actIdx[p] - choice
						if av[p] == machine.Word(item)+1 {
							winIdx = append(winIdx, status+item)
							wv[wi] = cv[p]
							wi++
						}
					}
					if wi > 0 {
						b.Scatter(winIdx, 0, wv[:wi])
					}
				}
				if err := b.Commit(); err != nil {
					return 0, err
				}
			}
		}
		if err := checkPlaced(m, n, status, unplaced); err != nil {
			return 0, err
		}
		if m.Word(unplaced) != 0 {
			m.Release(mark)
			continue // Las Vegas restart
		}
		// Compact A in array order: rank placed cells, write items out.
		flags := m.Alloc(total)
		ranks := m.Alloc(total)
		{
			b := m.Bulk(total, "perm/flag")
			av := b.ReadRange(a, total, 1, 0, 1)
			fw := b.Vals(total)
			for j, v := range av {
				if v > 0 {
					fw[j] = 1
				} else {
					fw[j] = 0
				}
			}
			b.WriteRange(flags, total, 1, 0, 1, fw)
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		if _, err := prim.PrefixSums(m, flags, ranks, total); err != nil {
			return 0, err
		}
		// The placed cells' ranks are 0..n-1 in array order, so the
		// output writes are one contiguous ascending range.
		{
			b := m.Bulk(total, "perm/emit")
			av := b.ReadRange(a, total, 1, 0, 1)
			rIdx := hit[:0]
			for j, v := range av {
				if v > 0 {
					rIdx = append(rIdx, ranks+j)
				}
			}
			b.Gather(rIdx, 0)
			ov := b.Vals(len(rIdx))
			t := 0
			for _, v := range av {
				if v > 0 {
					ov[t] = v - 1
					t++
				}
			}
			b.WriteRange(out, len(rIdx), 1, 0, 1, ov)
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		m.Release(mark)
		return out, nil
	}
	return 0, fmt.Errorf("perm: Random exceeded %d restarts", maxRestarts)
}

// dartSubarrays returns the sizes of Random's per-round subarrays of A
// (2n, n, n/2, ..., none below 64 cells) and their total.
func dartSubarrays(n int) (sizes []int, total int) {
	rounds := 2*prim.Max(1, prim.CeilLog2(prim.Max(2, prim.CeilLog2(n+1)))) + 4
	sizes = make([]int, 0, rounds)
	sz := 2 * n
	for r := 0; r < rounds; r++ {
		if sz < 64 {
			sz = 64
		}
		sizes = append(sizes, sz)
		total += sz
		sz /= 2
	}
	return sizes, total
}

// RandomWords is the most shared-memory words Random(m, n) has allocated
// at once: the output, A with the status, choice and flag cells, then
// A's flags and ranks and the prefix-sums tree over them (a scan model
// needs no tree, so it allocates less). A restart releases everything
// but the output, so the peak is the same for every seed.
func RandomWords(n int) int {
	_, total := dartSubarrays(n)
	return 3*n + 1 + 3*total + 2*prim.NextPow2(total)
}

// checkPlaced is Random's perm/check step: processor i reads item i's
// status, and an item still unplaced (status < 0) raises the restart
// flag — an OR computed by queued writes to one cell, whose contention
// is the number of unplaced items (w.h.p. none). The flag writes are
// one Scatter of the flag cell, repeated once per unplaced item on
// processors 0, 1, ...: any assignment of the writes to processors
// charges the same contention to the one cell.
func checkPlaced(m *machine.Machine, n, status, flag int) error {
	b := m.Bulk(n, "perm/check")
	sv := b.ReadRange(status, n, 1, 0, 1)
	u := 0
	for _, s := range sv {
		if s < 0 {
			u++
		}
	}
	if u > 0 {
		ones := b.Vals(u)
		for k := range ones {
			ones[k] = 1
		}
		b.Scatter(slices.Repeat([]int{flag}, u), 0, ones)
	}
	return b.Commit()
}

// ScanDart generates a uniformly random permutation with the
// dart-throwing-plus-compaction algorithm of Section 5.2 ("dart-throwing
// with scans"): every round, unplaced items claim cells of a fixed-size
// array; the round's survivors are compacted by a scan and transferred to
// the output, and the array is cleared. O(lg lg n) rounds w.h.p.; each
// round costs O(lg n) on models without a unit-time scan and O(1) with
// one, matching the paper's O(lg n lg lg n) / O(lg n) analysis.
func ScanDart(m *machine.Machine, n int) (int, error) {
	if n <= 0 {
		panic("perm: ScanDart with non-positive n")
	}
	out := m.Alloc(n)
	aLen := 2 * n
	mark := m.Mark()
	defer m.Release(mark)
	a := m.Alloc(aLen)
	status := m.Alloc(n)
	choice := m.Alloc(n)
	flags := m.Alloc(aLen)
	ranks := m.Alloc(aLen)
	if err := prim.FillPar(m, status, n, -1); err != nil {
		return 0, err
	}
	placed := 0
	actIdx := make([]int, 0, n)
	tgtIdx := make([]int, 0, n)
	ids := make([]machine.Word, 0, n)
	// hit holds each step's third list (lost darts, winners, the
	// survivors' ranks) and clr the cells to clear: one step commits
	// before the next refills them.
	hit := make([]int, 0, n)
	clr := make([]int, 0, aLen)
	for round := 0; placed < n; round++ {
		if round > maxRestarts {
			return 0, fmt.Errorf("perm: ScanDart exceeded %d rounds", maxRestarts)
		}
		// Throw / verify / confirm: the same descriptor shapes as
		// perm.Random (ascending active lists keep write arbitration and
		// per-item randomness identical to the per-item loop).
		{
			b := m.Bulk(n, "scandart/throw")
			sv := b.ReadRange(status, n, 1, 0, 1)
			actIdx, tgtIdx, ids = actIdx[:0], tgtIdx[:0], ids[:0]
			for i, s := range sv {
				if s >= 0 {
					continue
				}
				rs := b.Rand(i)
				t := rs.Intn(aLen)
				actIdx = append(actIdx, choice+i)
				tgtIdx = append(tgtIdx, a+t)
				ids = append(ids, machine.Word(i)+1)
			}
			if len(actIdx) > 0 {
				cv := b.Vals(len(actIdx))
				for p, at := range tgtIdx {
					cv[p] = machine.Word(at - a)
				}
				b.Scatter(tgtIdx, 0, ids)
				b.Scatter(actIdx, 0, cv)
			}
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		{
			b := m.Bulk(n, "scandart/verify")
			sv := b.ReadRange(status, n, 1, 0, 1)
			actIdx, tgtIdx = actIdx[:0], tgtIdx[:0]
			for i, s := range sv {
				if s >= 0 {
					continue
				}
				actIdx = append(actIdx, choice+i)
			}
			if len(actIdx) > 0 {
				cv := b.Gather(actIdx, 0)
				for _, t := range cv {
					tgtIdx = append(tgtIdx, a+int(t))
				}
				av := b.Gather(tgtIdx, 0)
				lost := hit[:0]
				for p, at := range tgtIdx {
					if av[p] != machine.Word(actIdx[p]-choice)+1 {
						lost = append(lost, at)
					}
				}
				if len(lost) > 0 {
					dv := b.Vals(len(lost))
					for p := range dv {
						dv[p] = dirty
					}
					b.Scatter(lost, 0, dv)
				}
			}
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		{
			b := m.Bulk(n, "scandart/confirm")
			sv := b.ReadRange(status, n, 1, 0, 1)
			actIdx, tgtIdx = actIdx[:0], tgtIdx[:0]
			for i, s := range sv {
				if s >= 0 {
					continue
				}
				actIdx = append(actIdx, choice+i)
			}
			if len(actIdx) > 0 {
				cv := b.Gather(actIdx, 0)
				for _, t := range cv {
					tgtIdx = append(tgtIdx, a+int(t))
				}
				av := b.Gather(tgtIdx, 0)
				winIdx := hit[:0]
				wv := b.Vals(len(actIdx))
				wi := 0
				for p := range tgtIdx {
					item := actIdx[p] - choice
					if av[p] == machine.Word(item)+1 {
						winIdx = append(winIdx, status+item)
						wv[wi] = cv[p]
						wi++
					}
				}
				if wi > 0 {
					b.Scatter(winIdx, 0, wv[:wi])
				}
			}
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		// Enumerate this round's survivors and transfer them after the
		// already-placed prefix.
		{
			b := m.Bulk(aLen, "scandart/flag")
			av := b.ReadRange(a, aLen, 1, 0, 1)
			fw := b.Vals(aLen)
			for j, v := range av {
				if v > 0 {
					fw[j] = 1
				} else {
					fw[j] = 0
				}
			}
			b.WriteRange(flags, aLen, 1, 0, 1, fw)
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		totalW, err := prim.PrefixSums(m, flags, ranks, aLen)
		if err != nil {
			return 0, err
		}
		k := placed
		{
			// Survivors land after the already-placed prefix in rank
			// order (contiguous ascending); every nonzero cell is then
			// cleared by an ascending scatter of zeros.
			b := m.Bulk(aLen, "scandart/transfer")
			av := b.ReadRange(a, aLen, 1, 0, 1)
			rIdx, clrIdx := hit[:0], clr[:0]
			for j, v := range av {
				if v > 0 {
					rIdx = append(rIdx, ranks+j)
				}
				if v != 0 {
					clrIdx = append(clrIdx, a+j)
				}
			}
			b.Gather(rIdx, 0)
			ov := b.Vals(len(rIdx))
			t := 0
			for _, v := range av {
				if v > 0 {
					ov[t] = v - 1
					t++
				}
			}
			b.WriteRange(out+k, len(rIdx), 1, 0, 1, ov)
			if len(clrIdx) > 0 {
				zv := b.Vals(len(clrIdx))
				for p := range zv {
					zv[p] = 0
				}
				b.Scatter(clrIdx, 0, zv)
			}
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		placed += int(totalW)
	}
	return out, nil
}

// SortingBased generates a uniformly random permutation with the popular
// EREW algorithm compared against in Table II: every item draws a random
// key in [1, 2^31), the keys are sorted with the bitonic network (the
// MasPar system sort), and the rank order is the permutation; duplicate
// keys trigger a Las Vegas restart. O(lg^2 n) time, O(n lg^2 n) work.
func SortingBased(m *machine.Machine, n int) (int, error) {
	if n <= 0 {
		panic("perm: SortingBased with non-positive n")
	}
	out := m.Alloc(n)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		mark := m.Mark()
		keys := m.Alloc(n)
		{
			b := m.Bulk(n, "sortperm/draw")
			kv := b.Vals(n)
			iv := b.Vals(n)
			for i := 0; i < n; i++ {
				rs := b.Rand(i)
				kv[i] = machine.Word(rs.Uint64n(1<<31-1)) + 1
				iv[i] = machine.Word(i)
			}
			b.WriteRange(keys, n, 1, 0, 1, kv)
			b.WriteRange(out, n, 1, 0, 1, iv)
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		if err := prim.BitonicSortPadded(m, keys, out, n); err != nil {
			return 0, err
		}
		// Duplicate detection: publish a shadow copy, compare with the
		// left neighbor (exclusive reads), and OR-reduce the indicators
		// (all EREW-legal, like the MasPar globalor routine).
		shadow := m.Alloc(n)
		dupF := m.Alloc(n)
		dup := m.Alloc(1)
		if err := prim.Copy(m, keys, shadow, n); err != nil {
			return 0, err
		}
		{
			b := m.Bulk(n, "sortperm/dupcheck")
			fw := b.Vals(n)
			fw[0] = 0
			if n > 1 {
				kv := b.ReadRange(keys+1, n-1, 1, 1, 1)
				sv := b.ReadRange(shadow, n-1, 1, 1, 1)
				for i := 0; i < n-1; i++ {
					if kv[i] == sv[i] {
						fw[i+1] = 1
					} else {
						fw[i+1] = 0
					}
				}
			}
			b.WriteRange(dupF, n, 1, 0, 1, fw)
			if err := b.Commit(); err != nil {
				return 0, err
			}
		}
		dups, err := prim.Reduce(m, dupF, n, dup)
		if err != nil {
			return 0, err
		}
		bad := dups != 0
		m.Release(mark)
		if !bad {
			return out, nil
		}
	}
	return 0, fmt.Errorf("perm: SortingBased exceeded %d restarts", maxRestarts)
}
