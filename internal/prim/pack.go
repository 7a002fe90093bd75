package prim

import "lowcontend/internal/machine"

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
		if f != 0 {
			iv[i] = 1
		} else {
			iv[i] = 0
		}
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
	posIdx := make([]int, 0, int(total))
	valIdx := make([]int, 0, int(total))
	for i, f := range fl {
		if f != 0 {
			posIdx = append(posIdx, pos+i)
			valIdx = append(valIdx, vals+i)
		}
	}
	if t := len(posIdx); t > 0 {
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
