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

// The dart rounds' step labels.
const (
	permThrow       = "perm/throw"
	permVerify      = "perm/verify"
	permConfirm     = "perm/confirm"
	scanDartThrow   = "scandart/throw"
	scanDartVerify  = "scandart/verify"
	scanDartConfirm = "scandart/confirm"
)

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
	rounds, total := dartSubarrays(n)
	for attempt := 0; attempt < maxRestarts; attempt++ {
		mark := m.Mark()
		a := m.Alloc(total)  // 0 free, item+1 placed, dirty on collision
		status := m.Alloc(n) // cell index in A claimed by item i, or -1
		choice := m.Alloc(n) // this round's dart target
		unplaced := m.Alloc(1)
		if err := prim.FillPar(m, status, n, -1); err != nil {
			return 0, err
		}
		d := newDarts(m, n, [3]string{permThrow, permVerify, permConfirm})
		d.start(a, status, choice)
		off := 0
		for r := range rounds {
			subLen := dartSubLen(n, r)
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
			fw := b.WriteInPlace(flags, total, 0, 1)
			for j, v := range av {
				fw[j] = machine.Word(b2i(v > 0))
			}
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
			rIdx, ov := d.hit, b.Vals(n+1)
			k := 0
			for j, v := range av {
				rIdx[k], ov[k] = ranks+j, v-1
				k += b2i(v > 0)
			}
			b.DeclareGather(rIdx[:k], 0)
			b.WriteRange(out, k, 1, 0, 1, ov[:k])
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
// Bulk.Rand(item) replays each item's private stream. Item i's dart is
// the value i+1.
type darts struct {
	m                    *machine.Machine
	n, a, status, choice int
	labels               [3]string // throw, verify and confirm
	items                []int     // unplaced items, ascending
	act, tgt             []int     // the round's choice and target cells, by item
	// hit holds each step's third list (lost darts, then winners), n+1
	// cells for the spare slot of a selection loop; the callers reuse
	// it after the rounds (one step commits before the next refills it).
	hit []int
}

// newDarts returns the round runner for n items with the given step
// labels. Its lists come from the machine's host arena, carved at the
// current allocation break: a Release to a mark taken before the call
// frees them.
func newDarts(m *machine.Machine, n int, labels [3]string) darts {
	return darts{
		m: m, n: n, labels: labels,
		items: m.HostInts(n)[:0],
		act:   m.HostInts(n)[:0],
		tgt:   m.HostInts(n)[:0],
		hit:   m.HostInts(n + 1),
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
	b.DeclareRead(d.status, n, 1, 0, 1)
	d.act, d.tgt = d.act[:0], d.tgt[:0]
	for _, i := range d.items {
		rs := b.Rand(i)
		d.act = append(d.act, d.choice+i)
		d.tgt = append(d.tgt, a+sub+rs.Intn(subLen))
	}
	if len(d.act) > 0 {
		ids, cv := b.Vals(len(d.act)), b.Vals(len(d.act))
		for p, i := range d.items {
			ids[p], cv[p] = machine.Word(i)+1, machine.Word(d.tgt[p]-a)
		}
		b.Scatter(d.tgt, 0, ids)
		b.Scatter(d.act, 0, cv)
	}
	if err := b.Commit(); err != nil {
		return err
	}

	// Verify and confirm read the choice cells back (their values are
	// the targets thrown) and then the targets.
	b = m.Bulk(n, d.labels[1])
	b.DeclareRead(d.status, n, 1, 0, 1)
	if len(d.act) > 0 {
		b.DeclareGather(d.act, 0)
		av := b.Gather(d.tgt, 0)
		lost, k := d.hit, 0
		for p, at := range d.tgt {
			lost[k] = at
			k += b2i(av[p] != machine.Word(d.items[p])+1)
		}
		if k > 0 {
			dv := b.Vals(k)
			for p := range dv {
				dv[p] = dirty
			}
			b.Scatter(lost[:k], 0, dv)
		}
	}
	if err := b.Commit(); err != nil {
		return err
	}

	b = m.Bulk(n, d.labels[2])
	b.DeclareRead(d.status, n, 1, 0, 1)
	if len(d.act) > 0 {
		b.DeclareGather(d.act, 0)
		av := b.Gather(d.tgt, 0)
		// Winners go to win and wv, the rest stay in items in place
		// (kl <= p, so no item is overwritten before it is read).
		win, wv := d.hit, b.Vals(len(d.act)+1)
		kw, kl := 0, 0
		for p, i := range d.items {
			w := b2i(av[p] == machine.Word(i)+1)
			win[kw], wv[kw] = d.status+i, machine.Word(d.tgt[p]-a)
			kw += w
			d.items[kl] = i
			kl += 1 - w
		}
		d.items = d.items[:kl]
		if kw > 0 {
			b.Scatter(win[:kw], 0, wv[:kw])
		}
	}
	return b.Commit()
}

// b2i is 1 for true and 0 for false, compiled without a branch: the
// selection loops above keep or drop cells of a randomly filled dart
// array, whose pattern a branch predictor cannot learn. Each writes
// its candidate to a spare slot and advances by b2i.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// dartSubarrays returns how many rounds Random throws and the total
// size of their subarrays of A (dartSubLen).
func dartSubarrays(n int) (rounds, total int) {
	rounds = 2*prim.Max(1, prim.CeilLog2(prim.Max(2, prim.CeilLog2(n+1)))) + 4
	for r := range rounds {
		total += dartSubLen(n, r)
	}
	return rounds, total
}

// dartSubLen is the size of Random's round-r subarray of A: 2n, n,
// n/2, ..., none below 64 cells.
func dartSubLen(n, r int) int {
	return max(64, 2*n>>r)
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
		idx, ones := m.HostInts(u), b.Vals(u)
		for k := range idx {
			idx[k], ones[k] = flag, 1
		}
		b.Scatter(idx, 0, ones)
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
	d := newDarts(m, n, [3]string{scanDartThrow, scanDartVerify, scanDartConfirm})
	d.start(a, status, choice)
	// clr holds the cells the transfer clears, with a spare slot.
	clr := m.HostInts(aLen + 1)
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
			fw := b.WriteInPlace(flags, aLen, 0, 1)
			for j, v := range av {
				fw[j] = machine.Word(b2i(v > 0))
			}
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
			rIdx, ov := d.hit, b.Vals(n+1)
			t, c := 0, 0
			for j, v := range av {
				rIdx[t], ov[t] = ranks+j, v-1
				t += b2i(v > 0)
				clr[c] = a + j
				c += b2i(v != 0)
			}
			b.DeclareGather(rIdx[:t], 0)
			b.WriteRange(out+k, t, 1, 0, 1, ov[:t])
			if c > 0 {
				zv := b.Vals(c)
				clear(zv)
				b.Scatter(clr[:c], 0, zv)
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
			kv := b.WriteInPlace(keys, n, 0, 1)
			iv := b.WriteInPlace(out, n, 0, 1)
			for i := 0; i < n; i++ {
				rs := b.Rand(i)
				kv[i] = machine.Word(rs.Uint64n(sortKeys)) + 1
				iv[i] = machine.Word(i)
			}
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
			var kv, sv []machine.Word
			if n > 1 {
				kv = b.ReadRange(keys+1, n-1, 1, 1, 1)
				sv = b.ReadRange(shadow, n-1, 1, 1, 1)
			}
			fw := b.WriteInPlace(dupF, n, 0, 1)
			fw[0] = 0
			for i := range kv {
				fw[i+1] = machine.Word(b2i(kv[i] == sv[i]))
			}
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
