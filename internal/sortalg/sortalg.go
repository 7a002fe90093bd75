// Package sortalg implements the distributive sort of Section 7
// (Theorem 7.1): sorting n keys drawn uniformly from U(0,1) in O(lg n)
// time and linear work w.h.p. on a QRQW machine, via multiple
// compaction into n/lg n subintervals and per-subinterval sequential
// finishing. The section's other results (Theorems 7.2–7.4 and 7.6) have
// no implementation here.
package sortalg

import (
	"fmt"

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
