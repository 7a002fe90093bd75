package prim

import (
	"fmt"

	"lowcontend/internal/machine"
)

// BitonicSort sorts the n-cell region at keys ascending using Batcher's
// bitonic network [Bat68]: O(lg^2 n) steps, O(n lg^2 n) operations,
// exclusive access. If vals >= 0, the n-cell payload region at vals is
// permuted alongside the keys. n must be a power of two (use
// BitonicSortPadded otherwise).
//
// Each compare-exchange round is one Machine.CompareExchange step,
// which applies the round in place over its analytic pairs (i, i+j)
// and charges exactly the element-wise round: every pair's two key
// reads, and for each swapped pair two key writes plus two payload
// reads and writes, under processor relabeling.
//
// This is the EREW finishing sort of Theorem 7.3 and the sorting method
// of the MasPar system sort used by the Table II baseline.
func BitonicSort(m *machine.Machine, keys, vals, n int) error {
	if n&(n-1) != 0 {
		panic("prim: BitonicSort size must be a power of two")
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			if err := m.CompareExchange("bitonic/cmpx", keys, vals, n, j, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// padSentinel is the +infinity key BitonicSortPadded pads with.
const padSentinel machine.Word = 1<<62 - 1

// BitonicSortPadded sorts an arbitrary-length region by padding to the
// next power of two with +infinity sentinels in scratch space. When it
// pads, every key must lie below the sentinel, or it would sort among
// the pads and could be dropped: the first key that does not is
// reported as an error, and nothing is charged.
func BitonicSortPadded(m *machine.Machine, keys, vals, n int) error {
	if n <= 1 {
		return nil
	}
	np2 := NextPow2(n)
	if np2 == n {
		return BitonicSort(m, keys, vals, n)
	}
	for i := range n {
		if v := m.Word(keys + i); v >= padSentinel {
			return fmt.Errorf("prim: BitonicSortPadded key %d at index %d is not below the padding sentinel %d", v, i, padSentinel)
		}
	}
	mark := m.Mark()
	defer m.Release(mark)
	k2 := m.Alloc(np2)
	v2 := -1
	if vals >= 0 {
		v2 = m.Alloc(np2)
	}
	b := m.Bulk(np2, "bitonicpad/load")
	kvals := b.Vals(np2)
	copy(kvals, b.ReadRange(keys, n, 1, 0, 1))
	for i := n; i < np2; i++ {
		kvals[i] = padSentinel
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
