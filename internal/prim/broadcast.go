package prim

import "lowcontend/internal/machine"

// Copy copies n cells from src to dst in one step (contention one).
// The regions must not overlap.
func Copy(m *machine.Machine, src, dst, n int) error {
	if n <= 0 {
		return nil
	}
	return copyStep(m, "copy", src, dst, n)
}

// copyStep is one step in which processor i copies cell src+i to cell
// dst+i, for i < n; the two ranges must not overlap.
func copyStep(m *machine.Machine, label string, src, dst, n int) error {
	b := m.Bulk(n, label)
	in := b.ReadRange(src, n, 1, 0, 1)
	copy(b.WriteInPlace(dst, n, 0, 1), in)
	return b.Commit()
}

// FillPar sets n cells starting at dst to v in one step, charged to the
// machine (unlike the host-side Machine.Fill).
func FillPar(m *machine.Machine, dst, n int, v machine.Word) error {
	if n <= 0 {
		return nil
	}
	b := m.Bulk(n, "fill")
	b.FillRange(dst, n, 1, 0, 1, v)
	return b.Commit()
}
