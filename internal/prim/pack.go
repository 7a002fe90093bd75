package prim

import (
	"sync"

	"lowcontend/internal/machine"
)

// packIdx recycles the host index lists of Pack's scatter step across
// calls and machines. Only the Packs running at once hold one, so a
// pooled machine keeps none between runs.
var packIdx = sync.Pool{New: func() any { return new([]int) }}

// Pack moves the values of the cells whose flag is nonzero, in index
// order, to the front of the region starting at out, and returns how many
// were packed. flags and vals are n-cell regions; out must have room for
// the packed values. O(lg n) steps, O(n) operations, exclusive access
// (this is the standard EREW prefix-sums compaction used as the paper's
// baseline for the compaction problems). The scatter step exploits that
// the packed destinations are consecutive by construction: the flagged
// processors' reads become two ascending gathers and the writes a single
// contiguous range descriptor.
func Pack(m *machine.Machine, flags, vals, out, n int) (int, error) {
	if n == 0 {
		return 0, nil
	}
	mark := m.Mark()
	defer m.Release(mark)
	ind := m.Alloc(n)
	pos := m.Alloc(n)
	b := m.Bulk(n, "pack/indicator")
	fl := b.ReadRange(flags, n, 1, 0, 1)
	iv := b.Vals(n)
	for i, f := range fl {
		iv[i] = machine.Word(b2i(f != 0))
	}
	b.WriteRange(ind, n, 1, 0, 1, iv)
	if err := b.Commit(); err != nil {
		return 0, err
	}
	total, err := PrefixSums(m, ind, pos, n)
	if err != nil {
		return 0, err
	}
	b = m.Bulk(n, "pack/scatter")
	fl = b.ReadRange(flags, n, 1, 0, 1)
	// The flags are arbitrary data, so the loop keeps the flagged
	// cells without branching on them: every cell is written to the
	// next slot (one spare), which advances only for a flagged cell.
	k := int(total) + 1
	buf := packIdx.Get().(*[]int)
	defer packIdx.Put(buf)
	if cap(*buf) < 2*k {
		*buf = make([]int, 2*k)
	}
	posIdx, valIdx := (*buf)[:k:k], (*buf)[k:2*k]
	t := 0
	for i, f := range fl {
		posIdx[t], valIdx[t] = pos+i, vals+i
		t += b2i(f != 0)
	}
	posIdx, valIdx = posIdx[:t], valIdx[:t]
	if t > 0 {
		// The position reads are charged but their values are known by
		// construction: flagged cell number k lands at out+k.
		b.Gather(posIdx, 0)
		pv := b.Gather(valIdx, 0)
		b.WriteRange(out, t, 1, 0, 1, pv)
	}
	if err := b.Commit(); err != nil {
		return 0, err
	}
	return int(total), nil
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
