// Package sortalg implements Section 7 of the paper:
//
//   - DistributiveSort (Theorem 7.1): sorting n keys drawn uniformly
//     from U(0,1) in O(lg n) time and linear work w.h.p. on a QRQW
//     machine, via multiple compaction into n/lg n subintervals and
//     per-subinterval sequential finishing.
//   - SampleSortQRQW (Theorems 7.2/7.3): the sqrt(n)-sample sort
//     "Algorithm A" with the binary-search fat-tree for low-contention
//     splitter location; buckets are finished with a segmented bitonic
//     network (prim.BitonicSegments, the kernel behind
//     prim.BitonicSort, with one segment per bucket block). One
//     recursion level is materialized (the recursion only changes the
//     finishing size; see DESIGN.md).
//   - IntegerSortCRQW (Theorem 7.4): sorting integers in [0, n*lg^c n)
//     in O(lg n)-dominated time and near-linear work on a CRQW machine,
//     following Rajasekaran & Reif's sample-and-count structure with
//     relaxed heavy multiple compaction.
//   - EmulateFetchAdd (Theorem 7.6 / Lemma 7.5): emulating one
//     fetch&add PRAM step via integer sorting + segmented prefix sums.
package sortalg

import (
	"fmt"

	"lowcontend/internal/fattree"
	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/prim"
)

// DistributiveSort sorts the n keys at base keys, assumed drawn
// uniformly from [0, maxKey), in place. O(lg n) time and linear work
// w.h.p. on a QRQW machine. Las Vegas: an overfull subinterval
// (polynomially rare) falls back to a designated sequential sort,
// charged to the machine.
func DistributiveSort(m *machine.Machine, keys, n int, maxKey machine.Word) error {
	if n <= 1 {
		return nil
	}
	lgn := prim.Max(2, prim.CeilLog2(n))
	buckets := prim.Max(1, n/lgn)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		v := m.Word(keys + i)
		if v < 0 || v >= maxKey {
			return fmt.Errorf("sortalg: key %d out of [0,%d)", v, maxKey)
		}
		labels[i] = int(v / ((maxKey + machine.Word(buckets) - 1) / machine.Word(buckets)))
		if labels[i] >= buckets {
			labels[i] = buckets - 1
		}
	}
	mark := m.Mark()
	defer m.Release(mark)
	in, err := multicompact.BuildInput(m, labels, buckets)
	if err != nil {
		return err
	}
	if _, err := multicompact.Run(m, in); err != nil {
		return err
	}
	// Rewrite bucket cells from item ids to key values. Every item id
	// appears in exactly one occupied bucket cell, so the occupied
	// cells' key reads are — up to processor relabeling — one read of
	// the whole keys region, and the writes an ascending scatter.
	bvals := m.Alloc(in.BLen)
	{
		b := m.Bulk(in.BLen, "dsort/vals")
		bv := b.ReadRange(in.B, in.BLen, 1, 0, 1)
		b.ReadRange(keys, n, 1, 0, 1)
		wIdx := make([]int, 0, n)
		for j, v := range bv {
			if v > 0 {
				wIdx = append(wIdx, bvals+j)
			}
		}
		wv := b.Vals(len(wIdx))
		t := 0
		for _, v := range bv {
			if v > 0 {
				wv[t] = m.Word(keys+int(v-1)) + 1
				t++
			}
		}
		b.Scatter(wIdx, 0, wv)
		if err := b.Commit(); err != nil {
			return err
		}
	}
	if err := sortBuckets(m, in, bvals); err != nil {
		return err
	}
	// Pack all subintervals, in order, back into keys.
	flags := m.Alloc(in.BLen)
	b := m.Bulk(in.BLen, "dsort/flags")
	fv := b.ReadRange(bvals, in.BLen, 1, 0, 1)
	fw := b.Vals(in.BLen)
	for j, v := range fv {
		if v != 0 {
			fw[j] = 1
		} else {
			fw[j] = 0
		}
	}
	b.WriteRange(flags, in.BLen, 1, 0, 1, fw)
	if err := b.Commit(); err != nil {
		return err
	}
	shifted := m.Alloc(n)
	cnt, err := prim.Pack(m, flags, bvals, shifted, in.BLen)
	if err != nil {
		return err
	}
	if cnt != n {
		return fmt.Errorf("sortalg: packed %d of %d keys", cnt, n)
	}
	b = m.Bulk(n, "dsort/out")
	sv := b.ReadRange(shifted, n, 1, 0, 1)
	ov := b.Vals(n)
	for i, v := range sv {
		ov[i] = v - 1
	}
	b.WriteRange(keys, n, 1, 0, 1, ov)
	return b.Commit()
}

// sortBuckets is DistributiveSort's dsort/seq step: each subinterval is
// sorted sequentially by its standby processor (the paper's bucketed
// heapsort finishing, here charged as O(b lg b) compute). Processor j
// reads its bucket's pointer and count, and a non-empty bucket's whole
// 4*cnt-cell subarray of bvals (key+1 per occupied cell, 0 otherwise),
// then writes the subarray back as its sorted keys followed by zeros.
// The buckets are disjoint, so the step is one Bulk step whose
// descriptors all settle analytically.
func sortBuckets(m *machine.Machine, in multicompact.Input, bvals int) error {
	b := m.Bulk(in.NSets, "dsort/seq")
	ptrs := b.ReadRange(in.Ptrs, in.NSets, 1, 0, 1)
	counts := b.ReadRange(in.Counts, in.NSets, 1, 0, 1)
	for j, c := range counts {
		cnt := int(c)
		if cnt == 0 {
			continue
		}
		lo := bvals + int(ptrs[j])
		out := b.Vals(4 * cnt)
		k := 0
		for _, v := range b.ReadRange(lo, 4*cnt, 1, j, 4*cnt) {
			if v != 0 {
				out[k] = v - 1
				k++
			}
		}
		insertionSort(out[:k])
		for i := range out[:k] {
			out[i]++
		}
		clear(out[k:])
		b.Compute(j, 1, int64(cnt*prim.Max(1, prim.CeilLog2(cnt+1))))
		b.WriteRange(lo, 4*cnt, 1, j, 4*cnt, out)
	}
	return b.Commit()
}

func insertionSort(v []machine.Word) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// SampleSortQRQW sorts n arbitrary keys at base keys in place on a QRQW
// machine: sqrt(n) random samples are sorted by all-pairs ranking, every
// key locates its bucket through the binary-search fat-tree (random-copy
// probes keep contention low), buckets are placed by relaxed multiple
// compaction, and each bucket is finished with a segmented bitonic
// network (all buckets in lockstep). O(lg^2 n)-dominated time and
// O(n lg n) work; the recursion of Algorithm A only shrinks the
// finishing size, so one level demonstrates the crossover (DESIGN.md).
func SampleSortQRQW(m *machine.Machine, keys, n int) error {
	if n <= 1 {
		return nil
	}
	if n <= 64 {
		return prim.BitonicSortPadded(m, keys, -1, n)
	}
	s := prim.NextPow2(prim.Max(2, prim.ISqrt(n)/2)) // splitter count
	sample := s                                      // sample size (= splitters)

	mark := m.Mark()
	defer m.Release(mark)
	samp := m.Alloc(sample)
	// Draw the sample (random positions; duplicates are harmless).
	// Bulk.Rand replays each processor's private stream, so the drawn
	// positions — and any read contention between them — are identical
	// to the per-processor loop.
	{
		b := m.Bulk(sample, "ssort/sample")
		sIdx := make([]int, sample)
		for i := range sIdx {
			r := b.Rand(i)
			sIdx[i] = keys + r.Intn(n)
		}
		b.WriteRange(samp, sample, 1, 0, 1, b.Gather(sIdx, 0))
		if err := b.Commit(); err != nil {
			return err
		}
	}
	// Sort the sample by all-pairs ranking: processor (i, j) pairs
	// contribute rank counts; with s = O(sqrt(n)), s^2 = O(n) work in
	// O(1) steps plus a scatter. Every processor reads the whole sample,
	// so the step charges the real contention s.
	ranks := m.Alloc(sample)
	if err := m.ParDoL(sample, "ssort/rank", func(c *machine.Ctx, i int) {
		// The pivot cell is read once on its own and again inside the
		// all-pairs scan — the repeat charges an operation but dedupes
		// for contention.
		ki := c.Read(samp + i)
		r := 0
		for j := range sample {
			if kj := c.Read(samp + j); kj < ki || (kj == ki && j < i) {
				r++
			}
		}
		c.Compute(sample)
		c.Write(ranks+i, machine.Word(r))
	}); err != nil {
		return err
	}
	// The ranks are a permutation, so the rank-ordered writes are one
	// contiguous range: sorted[r] = the sample key of rank r.
	sorted := m.Alloc(sample)
	{
		b := m.Bulk(sample, "ssort/scatter")
		rv := b.ReadRange(ranks, sample, 1, 0, 1)
		sv := b.ReadRange(samp, sample, 1, 0, 1)
		ov := b.Vals(sample)
		for i, r := range rv {
			ov[int(r)] = sv[i]
		}
		b.WriteRange(sorted, sample, 1, 0, 1, ov)
		if err := b.Commit(); err != nil {
			return err
		}
	}

	// Fat-tree search: bucket of each key.
	ft, err := fattree.Build(m, sorted, s, prim.Max(s, n/4))
	if err != nil {
		return err
	}
	path := m.Alloc(n)
	if err := ft.Search(keys, path, n); err != nil {
		return err
	}
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = int(m.Word(path + i))
	}

	// Place keys into per-bucket subarrays by multiple compaction, then
	// finish each bucket with a bitonic network over fixed-size padded
	// blocks so all buckets sort in lockstep.
	in, err := multicompact.BuildInput(m, labels, s)
	if err != nil {
		return err
	}
	res, err := multicompact.Run(m, in)
	if err != nil {
		return err
	}
	// Per-bucket padded blocks sized to the largest bucket.
	maxB := 1
	counts := make([]int, s)
	for _, l := range labels {
		counts[l]++
	}
	for _, c := range counts {
		if c > maxB {
			maxB = c
		}
	}
	// Block size covers the whole 4*maxB subarray span so that the
	// multicompact cell offset is directly a private block slot.
	blk := prim.NextPow2(4 * maxB)
	const inf = 1<<62 - 1
	arena := m.Alloc(s * blk)
	if err := prim.FillPar(m, arena, s*blk, inf); err != nil {
		return err
	}
	{
		// Three whole-region range reads; the block-slot writes are
		// distinct cells (multicompact positions are private within a
		// bucket, blocks are private to a bucket) but not address-
		// ordered, so the scatter expands at settlement.
		b := m.Bulk(n, "ssort/move")
		pv := b.ReadRange(res.Pos, n, 1, 0, 1)
		iv := b.ReadRange(in.IPtrs, n, 1, 0, 1)
		kv := b.ReadRange(keys, n, 1, 0, 1)
		wIdx := make([]int, n)
		for i := 0; i < n; i++ {
			off := int(pv[i]) - int(iv[i]) // private slot within the 4*count subarray
			wIdx[i] = arena + labels[i]*blk + off
		}
		b.Scatter(wIdx, 0, kv)
		if err := b.Commit(); err != nil {
			return err
		}
	}
	// Segmented bitonic sort over all blocks in lockstep: the same
	// kernel as prim.BitonicSort, with every blk-cell block a segment,
	// so each network round is one bulk step whose single swap-position
	// list backs both certified key scatters.
	if err := prim.BitonicSegments(m, arena, -1, s*blk, blk, "ssort/bitonic"); err != nil {
		return err
	}
	// Concatenate blocks in splitter order, dropping padding.
	flags := m.Alloc(s * blk)
	{
		b := m.Bulk(s*blk, "ssort/flags")
		av := b.ReadRange(arena, s*blk, 1, 0, 1)
		fw := b.Vals(s * blk)
		for j, v := range av {
			if v != inf {
				fw[j] = 1
			} else {
				fw[j] = 0
			}
		}
		b.WriteRange(flags, s*blk, 1, 0, 1, fw)
		if err := b.Commit(); err != nil {
			return err
		}
	}
	out := m.Alloc(n)
	cnt, err := prim.Pack(m, flags, arena, out, s*blk)
	if err != nil {
		return err
	}
	if cnt != n {
		return fmt.Errorf("sortalg: sample sort packed %d of %d", cnt, n)
	}
	return prim.Copy(m, out, keys, n)
}
