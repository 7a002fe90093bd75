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

// sortKeys is the number of keys SortingBased draws from: [1, 2^62-1).
const sortKeys = 1<<62 - 2

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
	d := newDarts(m, n, "perm")
	for attempt := 0; attempt < maxRestarts; attempt++ {
		mark := m.Mark()
		a := m.Alloc(total)  // 0 free, item+1 placed, dirty on collision
		status := m.Alloc(n) // cell index in A claimed by item i, or -1
		choice := m.Alloc(n) // this round's dart target
		unplaced := m.Alloc(1)
		if err := prim.FillPar(m, status, n, -1); err != nil {
			return 0, err
		}
		d.start(a, status, choice)
		off := 0
		for _, subLen := range sizes {
			if err := d.round(off, subLen); err != nil {
				return 0, err
			}
			off += subLen
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
			rIdx := d.hit[:0]
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

// darts runs the throw / verify / confirm rounds of Section 5.1's
// protocol for Random and ScanDart, over an array A at a, the items'
// status cells (cell offset in A once placed, -1 before) and their
// choice cells. The host keeps the unplaced items as an ascending list:
// the status cells say the same, but every step still charges the read
// of all n of them, as the element-wise algorithm pays it. Descriptor
// processor p is the p-th unplaced item, so write arbitration (highest
// processor wins) picks the same winner as a per-item loop, and
// Bulk.Rand(item) replays each item's private stream.
type darts struct {
	m                    *machine.Machine
	n, a, status, choice int
	labels               [3]string
	items                []int          // unplaced items, ascending
	act, tgt             []int          // the round's choice and target cells, by item
	ids                  []machine.Word // the round's darts: item+1
	// hit holds each step's third list (lost darts, then winners); the
	// callers reuse it after the rounds (one step commits before the
	// next refills it).
	hit []int
}

// newDarts returns the round runner for n items, with step labels
// prefix/throw, prefix/verify and prefix/confirm.
func newDarts(m *machine.Machine, n int, prefix string) *darts {
	return &darts{
		m: m, n: n,
		labels: [3]string{prefix + "/throw", prefix + "/verify", prefix + "/confirm"},
		items:  make([]int, 0, n),
		act:    make([]int, 0, n),
		tgt:    make([]int, 0, n),
		ids:    make([]machine.Word, 0, n),
		hit:    make([]int, 0, n),
	}
}

// start points the rounds at fresh arrays, with every item unplaced.
func (d *darts) start(a, status, choice int) {
	d.a, d.status, d.choice = a, status, choice
	d.items = d.items[:0]
	for i := range d.n {
		d.items = append(d.items, i)
	}
}

// round lets every unplaced item claim a random cell of A's subarray
// [sub, sub+subLen). A claim succeeds only if no other item targeted the
// same cell: throw writes the darts, verify reads them back and losers
// dirty the cell so the arbitration winner fails too (unbiasedness), and
// confirm records the survivors' cells in their status. The rest stay
// unplaced for the next round.
func (d *darts) round(sub, subLen int) error {
	m, n, a := d.m, d.n, d.a
	b := m.Bulk(n, d.labels[0])
	b.ReadRange(d.status, n, 1, 0, 1)
	d.act, d.tgt, d.ids = d.act[:0], d.tgt[:0], d.ids[:0]
	for _, i := range d.items {
		rs := b.Rand(i)
		d.act = append(d.act, d.choice+i)
		d.tgt = append(d.tgt, a+sub+rs.Intn(subLen))
		d.ids = append(d.ids, machine.Word(i)+1)
	}
	if len(d.act) > 0 {
		cv := b.Vals(len(d.act))
		for p, at := range d.tgt {
			cv[p] = machine.Word(at - a)
		}
		b.Scatter(d.tgt, 0, d.ids)
		b.Scatter(d.act, 0, cv)
	}
	if err := b.Commit(); err != nil {
		return err
	}

	// Verify and confirm read the choice cells back (their values are
	// the targets thrown) and then the targets.
	b = m.Bulk(n, d.labels[1])
	b.ReadRange(d.status, n, 1, 0, 1)
	if len(d.act) > 0 {
		b.Gather(d.act, 0)
		av := b.Gather(d.tgt, 0)
		lost := d.hit[:0]
		for p, at := range d.tgt {
			if av[p] != d.ids[p] {
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
		return err
	}

	b = m.Bulk(n, d.labels[2])
	b.ReadRange(d.status, n, 1, 0, 1)
	if len(d.act) > 0 {
		b.Gather(d.act, 0)
		av := b.Gather(d.tgt, 0)
		win := d.hit[:0]
		wv := b.Vals(len(d.act))[:0]
		left := d.items[:0]
		for p, i := range d.items {
			if av[p] == d.ids[p] {
				win = append(win, d.status+i)
				wv = append(wv, machine.Word(d.tgt[p]-a))
			} else {
				left = append(left, i)
			}
		}
		d.items = left
		if len(win) > 0 {
			b.Scatter(win, 0, wv)
		}
	}
	return b.Commit()
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
	d := newDarts(m, n, "scandart")
	d.start(a, status, choice)
	// clr holds the cells the transfer clears.
	clr := make([]int, 0, aLen)
	for round, placed := 0, 0; placed < n; round++ {
		if round > maxRestarts {
			return 0, fmt.Errorf("perm: ScanDart exceeded %d rounds", maxRestarts)
		}
		if err := d.round(0, aLen); err != nil {
			return 0, err
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
			rIdx, clrIdx := d.hit[:0], clr[:0]
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
// key in [1, 2^62-1), the keys are sorted with the bitonic network (the
// MasPar system sort), and the rank order is the permutation; duplicate
// keys trigger a Las Vegas restart. O(lg^2 n) time, O(n lg^2 n) work.
//
// The key range is as wide as BitonicSortPadded allows (its padding
// sentinel is 2^62-1), so a duplicate, about n^2/2^63 expected pairs,
// is rare at every n the simulator reaches.
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
				kv[i] = machine.Word(rs.Uint64n(sortKeys)) + 1
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
