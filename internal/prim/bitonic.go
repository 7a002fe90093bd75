package prim

import "lowcontend/internal/machine"

// BitonicSort sorts the n-cell region at keys ascending using Batcher's
// bitonic network [Bat68]: O(lg^2 n) steps, O(n lg^2 n) operations,
// exclusive access. If vals >= 0, the n-cell payload region at vals is
// permuted alongside the keys. n must be a power of two (use
// BitonicSortPadded otherwise).
//
// Each compare-exchange round is one bulk step: the pairs (i, i|j) for i
// with bit j clear partition [0,n), so a single strided descriptor with
// two cells per processor charges every active processor's reads, and
// the swapping pairs are one ascending list of positions i. That list
// serves every other descriptor of the round: the key scatters at bases
// keys (the i sides) and keys+j (the l = i+j sides), and the payload
// gathers and scatters at vals and vals+j. Processor relabeling keeps
// the per-processor operation multiset — and hence the step cost on
// every model — identical to the element-wise loop.
//
// This is the EREW finishing sort of Theorem 7.3 and the sorting method
// of the MasPar system sort used by the Table II baseline.
func BitonicSort(m *machine.Machine, keys, vals, n int) error {
	if n&(n-1) != 0 {
		panic("prim: BitonicSort size must be a power of two")
	}
	if n <= 1 {
		return nil
	}
	pos := make([]int, n/2)
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			b := m.Bulk(n, "bitonic/cmpx")
			kv := b.ReadRange(keys, n, 1, 0, 2)
			// The i with bit j clear are the runs [g, g+j) for g a
			// multiple of 2j; since 2j <= k, bit lg(k) of i is constant
			// on each run and the sort direction hoists out of it. Every
			// i is written and the cursor advances only on a swap, so
			// the pass has no data-dependent branch.
			s := 0
			for g := 0; g < n; g += 2 * j {
				up := g&k == 0
				for i := g; i < g+j; i++ {
					pos[s] = i
					if (kv[i] > kv[i+j]) == up {
						s++
					}
				}
			}
			if s > 0 {
				ps := pos[:s]
				wi := b.Vals(s)
				wl := b.Vals(s)
				for t, i := range ps {
					wi[t] = kv[i+j]
					wl[t] = kv[i]
				}
				// Every position carries bit j clear, so the i sides
				// (base keys) and the l sides (base keys+j) live in
				// complementary residue classes mod 2j: certify them and
				// let settlement skip the merge scan.
				mod := 2 * j
				b.ScatterMod(keys, ps, 0, wi, mod, j)
				b.ScatterMod(keys+j, ps, 0, wl, mod, j)
				if vals >= 0 {
					va := b.GatherMod(vals, ps, 0, mod, j)
					vb := b.GatherMod(vals+j, ps, 0, mod, j)
					b.ScatterMod(vals, ps, 0, vb, mod, j)
					b.ScatterMod(vals+j, ps, 0, va, mod, j)
				}
			}
			if err := b.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// BitonicSortPadded sorts an arbitrary-length region by padding to the
// next power of two with +infinity sentinels in scratch space.
func BitonicSortPadded(m *machine.Machine, keys, vals, n int) error {
	if n <= 1 {
		return nil
	}
	np2 := NextPow2(n)
	if np2 == n {
		return BitonicSort(m, keys, vals, n)
	}
	mark := m.Mark()
	defer m.Release(mark)
	k2 := m.Alloc(np2)
	v2 := -1
	if vals >= 0 {
		v2 = m.Alloc(np2)
	}
	const inf = 1<<62 - 1
	b := m.Bulk(np2, "bitonicpad/load")
	kvals := b.Vals(np2)
	copy(kvals, b.ReadRange(keys, n, 1, 0, 1))
	for i := n; i < np2; i++ {
		kvals[i] = inf
	}
	b.WriteRange(k2, np2, 1, 0, 1, kvals)
	if vals >= 0 {
		vv := b.Vals(np2)
		copy(vv, b.ReadRange(vals, n, 1, 0, 1))
		for i := n; i < np2; i++ {
			vv[i] = 0
		}
		b.WriteRange(v2, np2, 1, 0, 1, vv)
	}
	if err := b.Commit(); err != nil {
		return err
	}
	if err := BitonicSort(m, k2, v2, np2); err != nil {
		return err
	}
	if err := Copy(m, k2, keys, n); err != nil {
		return err
	}
	if vals >= 0 {
		return Copy(m, v2, vals, n)
	}
	return nil
}
