package machine

import (
	"reflect"
	"slices"
	"testing"
)

// contendedProgram runs a fixed mix of contended and uncontended steps:
// a broadcast-style read of one cell, a scattered write with a few hot
// targets, and a disjoint per-processor pass.
func contendedProgram(t *testing.T, m *Machine) {
	t.Helper()
	base := m.Alloc(64)
	if err := m.ParDoL(16, "hotread", func(c *Ctx, i int) { c.Read(base) }); err != nil {
		t.Fatal(err)
	}
	if err := m.ParDoL(16, "hotwrite", func(c *Ctx, i int) { c.Write(base+i%3, Word(i)) }); err != nil {
		t.Fatal(err)
	}
	if err := m.ParDoL(16, "disjoint", func(c *Ctx, i int) {
		c.Read(base + i)
		c.Write(base+32+i, 1)
	}); err != nil {
		t.Fatal(err)
	}
}

func TestHotCellAttribution(t *testing.T) {
	m := New(QRQW, 64, WithHotCells(4))
	contendedProgram(t, m)
	tr := m.StepTraces()
	if len(tr) != 3 {
		t.Fatalf("trace len = %d, want 3", len(tr))
	}

	// Step 1: all 16 processors read cell 0.
	if got := tr[0].HotCells; len(got) == 0 || got[0] != (HotCell{Addr: 0, Reads: 16}) {
		t.Errorf("hotread hot cells = %+v, want addr 0 with 16 readers first", got)
	}
	if tr[0].Ops != 16 {
		t.Errorf("hotread Ops = %d, want 16", tr[0].Ops)
	}

	// Step 2: cells 0,1,2 receive 6,5,5 writers; top-4 must rank them
	// 0,1,2 (count desc, addr asc) and include a fourth nothing — only
	// three cells were touched.
	want := []HotCell{{Addr: 0, Writes: 6}, {Addr: 1, Writes: 5}, {Addr: 2, Writes: 5}}
	if got := tr[1].HotCells; !reflect.DeepEqual(got, want) {
		t.Errorf("hotwrite hot cells = %+v, want %+v", got, want)
	}

	// Step 3: every cell has contention 1; the top-4 is the four lowest
	// addresses (ties broken by address).
	for i, hc := range tr[2].HotCells {
		if hc.Cont() != 1 {
			t.Errorf("disjoint hot cell %d = %+v, want contention 1", i, hc)
		}
	}
	if len(tr[2].HotCells) != 4 {
		t.Errorf("disjoint hot cells = %d entries, want 4 (the cap)", len(tr[2].HotCells))
	}
}

// TestUntracedParDoAllocsZero is the zero-overhead-off guard: an
// untraced, unprofiled step must not allocate.
func TestUntracedParDoAllocsZero(t *testing.T) {
	m := New(QRQW, 256)
	base := m.Alloc(256)
	body := func(c *Ctx, i int) {
		c.Read(base + i)
		c.Write(base+i, Word(i))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := m.ParDo(256, body); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("untraced ParDo allocates %.1f objects/step, want 0", avg)
	}
}

// TestStepTracesReturnsCopy: the returned slice must not alias the live
// internal trace, and must survive Reset.
func TestStepTracesReturnsCopy(t *testing.T) {
	m := New(QRQW, 8, WithTrace())
	m.ParDoL(2, "a", func(c *Ctx, i int) { c.Read(0) })
	tr := m.StepTraces()
	tr[0].Label = "mutated"
	if got := m.StepTraces(); got[0].Label != "a" {
		t.Errorf("mutating the returned trace leaked into the machine: %q", got[0].Label)
	}
	m.ParDoL(2, "b", func(c *Ctx, i int) { c.Read(0) })
	if len(tr) != 1 {
		t.Errorf("earlier copy grew with the machine: len=%d", len(tr))
	}
	m.Reset()
	if len(tr) != 1 || tr[0].Label != "mutated" {
		t.Errorf("copy did not survive Reset: %+v", tr)
	}
	if got := m.StepTraces(); len(got) != 0 {
		t.Errorf("Reset left %d trace entries", len(got))
	}
}

// TestProfilingRuntimeToggle: EnableProfiling takes effect immediately;
// Reset (the pooled-session path) restores the construction-time
// settings and clears the trace, so a pooled machine can never leak a
// previous lease's trace or tracing cost.
func TestProfilingRuntimeToggle(t *testing.T) {
	m := New(QRQW, 64) // constructed without tracing
	m.Alloc(64)
	m.ParDo(4, func(c *Ctx, i int) { c.Read(0) })
	if got := m.StepTraces(); len(got) != 0 {
		t.Fatalf("untraced machine recorded %d entries", len(got))
	}
	m.EnableProfiling(4)
	m.ParDoL(4, "p", func(c *Ctx, i int) { c.Read(1) })
	tr := m.StepTraces()
	if len(tr) != 1 || len(tr[0].HotCells) == 0 {
		t.Fatalf("profiled step not traced with hot cells: %+v", tr)
	}
	m.Reset()
	if tracing, hotK := m.Profiling(); tracing || hotK != 0 {
		t.Errorf("Reset kept runtime profiling on (tracing=%v hotK=%d)", tracing, hotK)
	}
	m.Alloc(64)
	m.ParDo(4, func(c *Ctx, i int) { c.Read(0) })
	if got := m.StepTraces(); len(got) != 0 {
		t.Errorf("post-Reset machine still traces: %d entries", len(got))
	}

	// A machine constructed WithTrace keeps tracing across Reset — Reset
	// restores construction-time settings, it does not strip them.
	mt := New(QRQW, 8, WithTrace())
	mt.Reset()
	mt.ParDo(2, func(c *Ctx, i int) { c.Read(0) })
	if got := mt.StepTraces(); len(got) != 1 {
		t.Errorf("WithTrace machine lost tracing after Reset: %d entries", len(got))
	}
}

// TestScanStepIsTraced: every Time-charging engine path must leave a
// trace entry, or per-phase profile time could not sum to Stats.Time.
func TestScanStepIsTraced(t *testing.T) {
	m := New(ScanQRQW, 16, WithTrace())
	m.Alloc(16)
	if err := m.ScanStep(0, 8, 8); err != nil {
		t.Fatal(err)
	}
	tr := m.StepTraces()
	if len(tr) != 1 {
		t.Fatalf("trace len = %d, want 1", len(tr))
	}
	if tr[0].Label != "scan" || tr[0].Cost != 1 || tr[0].Ops != 8 {
		t.Errorf("ScanStep trace = %+v", tr[0])
	}
	var traced int64
	for _, st := range tr {
		traced += st.Cost
	}
	if got := m.Stats().Time; traced != got {
		t.Errorf("traced cost %d != charged time %d", traced, got)
	}
}

// TestHotKClamp: the per-step top-K is bounded so a hostile K cannot
// turn candidate insertion quadratic.
func TestHotKClamp(t *testing.T) {
	m := New(QRQW, 8)
	m.EnableProfiling(1 << 20)
	if _, hotK := m.Profiling(); hotK != maxHotCells {
		t.Errorf("hotK = %d, want clamp to %d", hotK, maxHotCells)
	}
	m.EnableProfiling(-3)
	if _, hotK := m.Profiling(); hotK != 0 {
		t.Errorf("negative k: hotK = %d, want 0", hotK)
	}
}

// TestStepClock: machines sharing a step clock tick it in the order
// their steps execute, scans included; a machine without a clock
// records tick 0, and Reset detaches the clock.
func TestStepClock(t *testing.T) {
	var clock int64
	a, b := New(QRQW, 8, WithTrace()), New(ScanQRQW, 8, WithTrace())
	a.SetStepClock(&clock)
	b.SetStepClock(&clock)
	a.ParDo(2, func(c *Ctx, i int) { c.Read(0) })
	b.ParDo(1, func(c *Ctx, i int) {})
	if err := b.ScanStep(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	a.ParDo(1, func(c *Ctx, i int) {})
	ticks := func(m *Machine) (out []int64) {
		for _, st := range m.StepTraces() {
			out = append(out, st.Tick)
		}
		return out
	}
	if got := ticks(a); !slices.Equal(got, []int64{1, 4}) {
		t.Errorf("first machine's ticks = %v, want [1 4]", got)
	}
	if got := ticks(b); !slices.Equal(got, []int64{2, 3}) {
		t.Errorf("second machine's ticks = %v, want [2 3]", got)
	}
	a.Reset()
	a.EnableProfiling(0)
	a.ParDo(1, func(c *Ctx, i int) {})
	if got := ticks(a); !slices.Equal(got, []int64{0}) || clock != 4 {
		t.Errorf("after Reset: ticks %v, clock %d; want [0] and 4", got, clock)
	}
}
