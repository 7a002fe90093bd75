package prim

import "lowcontend/internal/machine"

// Copy copies n cells from src to dst in one step (contention one).
// The regions must not overlap.
func Copy(m *machine.Machine, src, dst, n int) error {
	if n <= 0 {
		return nil
	}
	b := m.Bulk(n, "copy")
	vs := b.ReadRange(src, n, 1, 0, 1)
	b.WriteRange(dst, n, 1, 0, 1, vs)
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
