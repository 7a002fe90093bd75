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
// Section 5.2). The children of level lvl occupy the contiguous block
// [2*lvl, 4*lvl), so a single two-cells-per-processor descriptor covers
// a whole sweep round: an up-sweep level is a read of the children and
// an in-place write of the parents, and a down-sweep level reads the
// parents and the left children and writes both children in place.
// Every step computes straight into the tree (Bulk.WriteInPlace), so
// each value is moved once.
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
	if err := copyStep(m, "prefix/load", src, tree+np2, n); err != nil {
		return 0, err
	}
	if err := upSweep(m, "prefix/up", tree, np2); err != nil {
		return 0, err
	}
	total := m.Word(tree + 1)
	// Down-sweep: replace each node with the sum of leaves strictly to
	// its left. Processor i reads its left child (declared, as the
	// values are taken from the children's cells) before it overwrites
	// that child with its own prefix.
	m.SetWord(tree+1, 0)
	for lvl := 1; lvl < np2; lvl *= 2 {
		b := m.Bulk(lvl, "prefix/down")
		pre := b.ReadRange(tree+lvl, lvl, 1, 0, 1)
		b.DeclareRead(tree+2*lvl, lvl, 2, 0, 1)
		ch := b.WriteInPlace(tree+2*lvl, 2*lvl, 0, 2)
		for i, p := range pre {
			left := ch[2*i]
			ch[2*i] = p
			ch[2*i+1] = p + left
		}
		if err := b.Commit(); err != nil {
			return 0, err
		}
	}
	// Store the leaf prefixes.
	if err := copyStep(m, "prefix/store", tree+np2, dst, n); err != nil {
		return 0, err
	}
	return total, nil
}

// upSweep sums the leaves of the tree at tree, with np2 leaves at
// tree+np2, up to its root at tree+1: one step per level, in which
// processor i reads the two children of node lvl+i and writes their sum
// into the node.
func upSweep(m *machine.Machine, label string, tree, np2 int) error {
	for lvl := np2 / 2; lvl >= 1; lvl /= 2 {
		b := m.Bulk(lvl, label)
		ch := b.ReadRange(tree+2*lvl, 2*lvl, 1, 0, 2)
		sums := b.WriteInPlace(tree+lvl, lvl, 0, 1)
		for i := range sums {
			sums[i] = ch[2*i] + ch[2*i+1]
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	return nil
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
	if err := copyStep(m, "reduce/load", src, tree+np2, n); err != nil {
		return 0, err
	}
	if err := upSweep(m, "reduce/up", tree, np2); err != nil {
		return 0, err
	}
	if err := copyStep(m, "reduce/out", tree+1, out, 1); err != nil {
		return 0, err
	}
	return m.Word(out), nil
}
