package prim

import (
	"lowcontend/internal/machine"
)

// PrefixSums computes the exclusive prefix sums of the n cells starting
// at src into the n cells starting at dst and returns the total. It runs
// in O(lg n) steps with O(n) operations using a Blelloch up-sweep /
// down-sweep over a scratch tree; the access pattern is exclusive, so it
// is legal on every model. If the machine provides a unit-time scan
// primitive, that is used instead (one step, the scan-simd-qrqw case of
// Section 5.2). Every tree level is two or three range descriptors: the
// children of level lvl occupy the contiguous block [2*lvl, 4*lvl), so a
// single two-cells-per-processor descriptor covers a whole sweep round.
//
// src and dst may coincide. The scratch memory is released before
// returning.
func PrefixSums(m *machine.Machine, src, dst, n int) (machine.Word, error) {
	if n == 0 {
		return 0, nil
	}
	if n < 0 {
		panic("prim: PrefixSums with negative length")
	}
	if m.Model().HasUnitScan() {
		// Total = last prefix + last value; grab them before the scan
		// overwrites src when src == dst.
		last := m.Word(src + n - 1)
		if err := m.ScanStep(src, dst, n); err != nil {
			return 0, err
		}
		return m.Word(dst+n-1) + last, nil
	}

	np2 := NextPow2(n)
	mark := m.Mark()
	defer m.Release(mark)
	tree := m.Alloc(2 * np2) // tree[1] is the root; leaves at tree[np2..2*np2)

	// Load leaves (zero padding comes from Alloc).
	b := m.Bulk(n, "prefix/load")
	b.WriteRange(tree+np2, n, 1, 0, 1, b.ReadRange(src, n, 1, 0, 1))
	if err := b.Commit(); err != nil {
		return 0, err
	}
	// Up-sweep.
	for w := np2 / 2; w >= 1; w /= 2 {
		lvl := w
		b := m.Bulk(lvl, "prefix/up")
		ch := b.ReadRange(tree+2*lvl, 2*lvl, 1, 0, 2)
		sums := b.Vals(lvl)
		for i := 0; i < lvl; i++ {
			sums[i] = ch[2*i] + ch[2*i+1]
		}
		b.WriteRange(tree+lvl, lvl, 1, 0, 1, sums)
		if err := b.Commit(); err != nil {
			return 0, err
		}
	}
	total := m.Word(tree + 1)
	// Down-sweep: replace each node with the sum of leaves strictly to
	// its left.
	m.SetWord(tree+1, 0)
	for w := 1; w < np2; w *= 2 {
		lvl := w
		b := m.Bulk(lvl, "prefix/down")
		pre := b.ReadRange(tree+lvl, lvl, 1, 0, 1)
		left := b.ReadRange(tree+2*lvl, lvl, 2, 0, 1)
		out := b.Vals(2 * lvl)
		for i := 0; i < lvl; i++ {
			out[2*i] = pre[i]
			out[2*i+1] = pre[i] + left[i]
		}
		b.WriteRange(tree+2*lvl, 2*lvl, 1, 0, 2, out)
		if err := b.Commit(); err != nil {
			return 0, err
		}
	}
	// Store the leaf prefixes.
	b = m.Bulk(n, "prefix/store")
	b.WriteRange(dst, n, 1, 0, 1, b.ReadRange(tree+np2, n, 1, 0, 1))
	if err := b.Commit(); err != nil {
		return 0, err
	}
	return total, nil
}

// Reduce computes the sum of the n cells starting at src, writes it to
// cell out, and returns it. O(lg n) steps, O(n) operations, exclusive
// access.
func Reduce(m *machine.Machine, src, n, out int) (machine.Word, error) {
	if n == 0 {
		m.SetWord(out, 0)
		return 0, nil
	}
	np2 := NextPow2(n)
	mark := m.Mark()
	defer m.Release(mark)
	tree := m.Alloc(2 * np2)
	b := m.Bulk(n, "reduce/load")
	b.WriteRange(tree+np2, n, 1, 0, 1, b.ReadRange(src, n, 1, 0, 1))
	if err := b.Commit(); err != nil {
		return 0, err
	}
	for w := np2 / 2; w >= 1; w /= 2 {
		lvl := w
		b := m.Bulk(lvl, "reduce/up")
		ch := b.ReadRange(tree+2*lvl, 2*lvl, 1, 0, 2)
		sums := b.Vals(lvl)
		for i := 0; i < lvl; i++ {
			sums[i] = ch[2*i] + ch[2*i+1]
		}
		b.WriteRange(tree+lvl, lvl, 1, 0, 1, sums)
		if err := b.Commit(); err != nil {
			return 0, err
		}
	}
	b = m.Bulk(1, "reduce/out")
	b.WriteRange(out, 1, 1, 0, 1, b.ReadRange(tree+1, 1, 1, 0, 1))
	if err := b.Commit(); err != nil {
		return 0, err
	}
	return m.Word(out), nil
}
