package machine

import (
	"slices"
	"testing"
)

// checkDirtySound fails t unless the dirty high-water mark is sound:
// every word of mem at or above it is zero. It scans the whole capacity
// on purpose — the O(capacity) check the mark lets Reset skip.
func checkDirtySound(t testing.TB, m *Machine) {
	t.Helper()
	if m.dirty < 0 || m.dirty > len(m.mem) {
		t.Fatalf("dirty mark %d outside 0..%d", m.dirty, len(m.mem))
	}
	for a := m.dirty; a < len(m.mem); a++ {
		if m.mem[a] != 0 {
			t.Fatalf("mem[%d] = %d at or above the dirty mark %d", a, m.mem[a], m.dirty)
		}
	}
}

// checkScratchZero fails t unless the contention scratch is sound after
// a step: none is still out on lease, and every idle scratch is
// all-zero — a leftover count would corrupt the contention of whichever
// machine leases that scratch next.
func checkScratchZero(t testing.TB) {
	t.Helper()
	f := &scratchFree
	f.Lock()
	defer f.Unlock()
	if f.out != 0 {
		t.Fatalf("%d contention scratch still on lease after the step", f.out)
	}
	for i, c := range f.list {
		if len(c.w) != len(c.r) {
			t.Fatalf("idle scratch %d: %d read counters, %d write counters", i, len(c.r), len(c.w))
		}
		for a := range c.r {
			if c.r[a] != 0 || c.w[a] != 0 {
				t.Fatalf("idle scratch %d: counters at %d are %d/%d, want 0", i, a, c.r[a], c.w[a])
			}
		}
	}
}

// checkResetClean resets m and checks that every word reads zero and
// the mark is back at zero.
func checkResetClean(t testing.TB, m *Machine) {
	t.Helper()
	m.Reset()
	if m.dirty != 0 {
		t.Fatalf("dirty mark %d after Reset, want 0", m.dirty)
	}
	for a, v := range m.mem {
		if v != 0 {
			t.Fatalf("mem[%d] = %d after Reset", a, v)
		}
	}
}

// checkDirtyMark checks soundness and that the mark is exactly want: a
// mark above the highest written address would still be sound but would
// make Reset pay for words nobody wrote.
func checkDirtyMark(t testing.TB, m *Machine, want int) {
	t.Helper()
	checkDirtySound(t, m)
	if m.dirty != want {
		t.Fatalf("dirty mark = %d, want %d", m.dirty, want)
	}
}

func TestDirtyMarkSerialStep(t *testing.T) {
	m := New(QRQW, 1<<12)
	if m.dirty != 0 {
		t.Fatalf("fresh machine dirty mark = %d, want 0", m.dirty)
	}
	if err := m.ParDo(8, func(c *Ctx, i int) { c.Write(3000+i, Word(i+1)) }); err != nil {
		t.Fatal(err)
	}
	checkDirtyMark(t, m, 3008)
	checkScratchZero(t)
	// A later step writing lower addresses never lowers the mark.
	if err := m.ParDo(4, func(c *Ctx, i int) { c.Write(i, 9) }); err != nil {
		t.Fatal(err)
	}
	checkDirtyMark(t, m, 3008)
	checkResetClean(t, m)
}

// TestDirtyMarkSharded drives a CRCW step that mixes sole writers with
// contended writes: both raise the mark, and the highest-indexed writer
// wins each contended cell. (The name predates the single settlement
// path; it once drove the sharded one.)
func TestDirtyMarkSharded(t *testing.T) {
	const top = 1<<16 - 1
	const p = 8192
	m := New(CRCW, 1<<16)
	defer m.Free()
	// Sole writers fill the top p cells of memory, so only their apply
	// can raise the mark that high; the 64 cells at 10000.. take p/64
	// contending writers each.
	err := m.ParDo(p, func(c *Ctx, i int) {
		c.Write(10000+i%64, Word(i+1))
		c.Write(top-i, Word(i+1))
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDirtyMark(t, m, top+1)
	checkScratchZero(t)
	if got, want := m.Word(10000), Word(p-64+1); got != want {
		t.Errorf("arbitrated cell = %d, want %d", got, want)
	}
	checkResetClean(t, m)

	// Contended writes alone.
	err = m.ParDo(p, func(c *Ctx, i int) { c.Write(20000+i%8, Word(i+1)) })
	if err != nil {
		t.Fatal(err)
	}
	checkDirtyMark(t, m, 20008)
	checkScratchZero(t)
	if got, want := m.Word(20000), Word(p-8+1); got != want {
		t.Errorf("arbitrated cell = %d, want %d", got, want)
	}
	checkResetClean(t, m)
}

// TestDirtyMarkViolation: a step that violates the model has still
// applied its writes, so the mark must cover them.
func TestDirtyMarkViolation(t *testing.T) {
	m := New(EREW, 1<<12)
	err := m.ParDo(8, func(c *Ctx, i int) { c.Write(2000, Word(i+1)) })
	if err == nil {
		t.Fatal("EREW concurrent write did not violate")
	}
	checkDirtySound(t, m)
	checkScratchZero(t)
	checkResetClean(t, m)
}

// TestDirtyMarkDescriptors covers the analytically settled descriptor
// shapes (applyDesc) and an expanded one, each on a fresh machine so
// the mark is exactly the descriptor's highest cell.
func TestDirtyMarkDescriptors(t *testing.T) {
	vals := func(n int) []Word {
		v := make([]Word, n)
		for i := range v {
			v[i] = Word(i + 1)
		}
		return v
	}
	cases := []struct {
		name     string
		p        int
		build    func(b *Bulk)
		want     int
		expanded bool
	}{
		{"fill-stride-1", 16, func(b *Bulk) { b.FillRange(100, 16, 1, 0, 1, 7) }, 116, false},
		{"fill-strided", 16, func(b *Bulk) { b.FillRange(100, 16, 3, 0, 1, 7) }, 100 + 3*15 + 1, false},
		{"write-stride-1", 16, func(b *Bulk) { b.WriteRange(200, 16, 1, 0, 1, vals(16)) }, 216, false},
		{"write-strided", 8, func(b *Bulk) { b.WriteRange(200, 16, 5, 0, 2, vals(16)) }, 200 + 5*15 + 1, false},
		{"scatter-sorted", 4, func(b *Bulk) { b.Scatter([]int{5, 90, 400, 901}, 0, vals(4)) }, 902, false},
		{"scatter-unsorted", 4, func(b *Bulk) { b.Scatter([]int{901, 5, 400, 90}, 0, vals(4)) }, 902, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(QRQW, 1<<10)
			b := m.Bulk(tc.p, tc.name)
			tc.build(b)
			if err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if ex := m.ExecStats(); ex.BulkDescriptors == 0 || (ex.BulkExpanded > 0) != tc.expanded {
				t.Fatalf("descriptors=%d expanded=%d, want expanded=%v", ex.BulkDescriptors, ex.BulkExpanded, tc.expanded)
			}
			checkDirtyMark(t, m, tc.want)
			checkScratchZero(t)
			checkResetClean(t, m)
		})
	}
}

// TestDirtyMarkHotCells: hot-cell attribution reads the counters before
// settlement resets them, and every descriptor of a profiled Bulk step
// expands through the same counters.
func TestDirtyMarkHotCells(t *testing.T) {
	const p = 8192
	m := New(QRQW, 1<<15, WithHotCells(4))
	defer m.Free()
	err := m.ParDo(p, func(c *Ctx, i int) {
		c.Read(i % 16)
		c.Write(20000+i%32, Word(i+1))
		if i < 8 {
			c.Write(30000+i, 1)
			c.Write(31000+i, 2)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.StepTraces()
	if len(tr) != 1 || len(tr[0].HotCells) != 4 || tr[0].HotCells[0].Cont() != int64(p/16) {
		t.Fatalf("hot cells %+v, want 4 led by contention %d", tr, p/16)
	}
	checkDirtyMark(t, m, 31008)
	checkScratchZero(t)

	// A profiled descriptor step: its sorted scatter would settle
	// analytically, but hot-cell attribution expands it.
	b := m.Bulk(8, "scatter")
	b.Gather(slices.Repeat([]int{5}, 8), 0)
	b.Scatter([]int{32000, 32001, 32002, 32003, 32004, 32005, 32006, 32007}, 0,
		[]Word{1, 2, 3, 4, 5, 6, 7, 8})
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	tr = m.StepTraces()
	if ex := m.ExecStats(); ex.BulkExpanded != 2 || len(tr) != 2 || tr[1].HotCells[0] != (HotCell{Addr: 5, Reads: 8}) {
		t.Fatalf("expanded %d, traces %+v, want 2 expanded and hot cell 5 read by 8", ex.BulkExpanded, tr)
	}
	checkDirtyMark(t, m, 32008)
	checkScratchZero(t)
	checkResetClean(t, m)
}

func TestDirtyMarkHostWrites(t *testing.T) {
	m := New(QRQW, 1<<10)
	m.SetWord(300, 1)
	checkDirtyMark(t, m, 301)
	m.Store(400, []Word{1, 2, 3})
	checkDirtyMark(t, m, 403)
	m.Fill(900, 10, 0) // zero fill keeps the invariant without raising the mark
	checkDirtyMark(t, m, 403)
	m.Fill(500, 10, 4)
	checkDirtyMark(t, m, 510)
	checkResetClean(t, m)

	s := New(ScanQRQW, 1<<10)
	s.Fill(0, 8, 1)
	if err := s.ScanStep(0, 700, 8); err != nil {
		t.Fatal(err)
	}
	checkDirtyMark(t, s, 708)
	checkResetClean(t, s)
}

// TestDirtyMarkGrowth: growth copies only the words below the mark,
// which must keep everything written, and Release re-zeroes a scratch
// region without breaking the invariant.
func TestDirtyMarkGrowth(t *testing.T) {
	m := New(QRQW, 64)
	m.SetWord(10, 7)
	m.Alloc(200) // grows past the initial capacity
	if m.MemWords() < 200 || m.Word(10) != 7 {
		t.Fatalf("growth lost data: cap %d word %d", m.MemWords(), m.Word(10))
	}
	checkDirtyMark(t, m, 11)

	mark := m.Mark()
	r := m.Alloc(32)
	m.Fill(r, 32, 5)
	m.Release(mark)
	checkDirtySound(t, m)
	if m.Word(r) != 0 {
		t.Fatal("Release did not zero the released region")
	}
	checkResetClean(t, m)
}

// TestDirtyMarkCompareExchange checks that an in-place bitonic round
// raises the mark over the cells it writes: the keys above the mark are
// zero until the round swaps nonzero keys into them.
func TestDirtyMarkCompareExchange(t *testing.T) {
	m := New(QRQW, 64)
	m.Store(10, []Word{5, 6, 7, 8})
	m.Store(30, []Word{1, 2, 3, 4})
	if err := m.CompareExchange("cmpx", 10, 30, 8, 4, 8); err != nil {
		t.Fatal(err)
	}
	checkDirtySound(t, m)
	checkResetClean(t, m)
}
