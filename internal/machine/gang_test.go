package machine

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// gangProgram exercises every dispatch route against one machine: fused
// fast-path steps (disjoint chunks), contended scatter steps (sharded
// settlement with write arbitration), serial sub-cutoff steps, a
// many-accesses-per-processor step, a descriptor-only Bulk step, and a
// QRQW-contended read step. It returns the final memory contents.
func gangProgram(t *testing.T, m *Machine) []Word {
	t.Helper()
	const n = 4 * serialCutoff
	base := m.Alloc(n)
	acc := m.Alloc(n)
	hot := m.Alloc(8)

	// Disjoint per-processor writes: the fused fast path.
	if err := m.ParDoL(n, "init", func(c *Ctx, i int) {
		c.Write(base+i, Word(i*3+1))
	}); err != nil {
		t.Fatal(err)
	}
	// Randomized scatter: chunks overlap, sharded settlement arbitrates
	// contended writes by processor index.
	if err := m.ParDoL(n, "scatter", func(c *Ctx, i int) {
		tgt := int(c.Rand().Uint64n(n))
		v := c.Read(base + i)
		c.Write(acc+tgt, v+Word(i))
	}); err != nil {
		t.Fatal(err)
	}
	// Serial step below the cutoff.
	if err := m.ParDoL(serialCutoff/4, "small", func(c *Ctx, i int) {
		c.Write(hot+(i%8), Word(i))
	}); err != nil {
		t.Fatal(err)
	}
	// Contended reads of a handful of cells (legal on QRQW, charged by
	// kappa) plus a private write.
	if err := m.ParDoL(n, "hotread", func(c *Ctx, i int) {
		v := c.Read(hot + (i % 4))
		c.Write(base+i, v+Word(i))
	}); err != nil {
		t.Fatal(err)
	}
	// Per-processor block prefix sums: many accesses per processor,
	// disjoint across processors.
	const per = 8
	if err := m.ParDoL(n/per, "blocks", func(c *Ctx, i int) {
		var s Word
		for k := range per {
			s += c.Read(base + i*per + k)
			c.Write(acc+i*per+k, s)
		}
	}); err != nil {
		t.Fatal(err)
	}
	// Descriptor-only step through the machine-owned Bulk builder.
	b := m.Bulk(n/per, "bulkstep")
	got := b.ReadRange(acc, n, 1, 0, per)
	vals := b.Vals(n / per)
	for i := range vals {
		vals[i] = got[i*per] + 7
	}
	b.WriteRange(base, n/per, 1, 0, 1, vals)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	return m.LoadWords(0, m.Allocated())
}

// TestGangDeterminism pins the tentpole's contract: charged stats, step
// traces, hot-cell profiles, and memory contents are bit-identical at
// any gang width and any dynamic-chunking granularity.
func TestGangDeterminism(t *testing.T) {
	type outcome struct {
		stats Stats
		trace []StepTrace
		mem   []Word
	}
	run := func(workers, chunksPer int) outcome {
		m := New(QRQW, 1<<16, WithSeed(42), WithWorkers(workers), WithHotCells(4))
		m.chunksPer, m.noAdapt = chunksPer, true
		defer m.Free()
		mem := gangProgram(t, m)
		return outcome{m.Stats(), m.StepTraces(), mem}
	}
	ref := run(1, 1)
	if ref.stats.MaxContention < 2 {
		t.Fatalf("program not contended enough to be interesting: %+v", ref.stats)
	}
	for _, workers := range []int{2, 8} {
		for _, chunksPer := range []int{1, 4} {
			got := run(workers, chunksPer)
			label := fmt.Sprintf("workers=%d chunksPer=%d", workers, chunksPer)
			if got.stats != ref.stats {
				t.Errorf("%s: stats %+v\n want %+v", label, got.stats, ref.stats)
			}
			if len(got.trace) != len(ref.trace) {
				t.Fatalf("%s: %d trace entries, want %d", label, len(got.trace), len(ref.trace))
			}
			for i := range ref.trace {
				if !traceEqual(got.trace[i], ref.trace[i]) {
					t.Errorf("%s: trace[%d] = %+v\n want %+v", label, i, got.trace[i], ref.trace[i])
				}
			}
			if len(got.mem) != len(ref.mem) {
				t.Fatalf("%s: memory size %d, want %d", label, len(got.mem), len(ref.mem))
			}
			for a := range ref.mem {
				if got.mem[a] != ref.mem[a] {
					t.Fatalf("%s: mem[%d] = %d, want %d", label, a, got.mem[a], ref.mem[a])
				}
			}
		}
	}
}

func traceEqual(a, b StepTrace) bool {
	if a.Step != b.Step || a.Procs != b.Procs || a.MaxOps != b.MaxOps ||
		a.ReadCont != b.ReadCont || a.WriteCont != b.WriteCont ||
		a.Cost != b.Cost || a.Ops != b.Ops || a.Label != b.Label ||
		len(a.HotCells) != len(b.HotCells) {
		return false
	}
	for i := range a.HotCells {
		if a.HotCells[i] != b.HotCells[i] {
			return false
		}
	}
	return true
}

// TestGangViolationDeterminism pins the violation report — including the
// offending address — across gang widths: the kappa arg-max breaks count
// ties toward the smallest address, so the reported cell is not an
// accident of chunk scheduling.
func TestGangViolationDeterminism(t *testing.T) {
	run := func(workers int) string {
		m := New(EREW, 1<<15, WithWorkers(workers))
		m.noAdapt = true
		defer m.Free()
		// Every processor reads cell (i%7)+3: kappa ~ n/7 on seven cells,
		// all tied — the smallest contended address must be reported.
		err := m.ParDo(3*serialCutoff, func(c *Ctx, i int) {
			c.Read((i % 7) + 3)
		})
		if err == nil {
			t.Fatal("EREW concurrent read did not violate")
		}
		return err.Error()
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); got != ref {
			t.Errorf("workers=%d: violation %q, want %q", workers, got, ref)
		}
	}
}

// TestGangCounters checks the dispatch-path accounting: fused settles
// for disjoint steps, extra dispatches for sharded ones, serial steps
// below the cutoff — and that ResetStats clears all three.
func TestGangCounters(t *testing.T) {
	m := New(QRQW, 1<<15, WithWorkers(4))
	m.noAdapt = true
	defer m.Free()
	n := 2 * serialCutoff
	if err := m.ParDo(n, func(c *Ctx, i int) { c.Write(i, 1) }); err != nil {
		t.Fatal(err)
	}
	if ex := m.ExecStats(); ex.GangDispatches != 1 || ex.GangFusedSettles != 1 || ex.SerialSteps != 0 {
		t.Errorf("after fused step: dispatches=%d fused=%d serial=%d, want 1 1 0",
			ex.GangDispatches, ex.GangFusedSettles, ex.SerialSteps)
	}
	if err := m.ParDo(n, func(c *Ctx, i int) { c.Write(i%64, 1) }); err != nil {
		t.Fatal(err)
	}
	ex := m.ExecStats()
	if ex.GangFusedSettles != 1 {
		t.Errorf("contended step counted as fused: fused=%d, want 1", ex.GangFusedSettles)
	}
	if ex.GangDispatches < 4 { // 1 fused + 1 body dispatch + 3 sharded phases
		t.Errorf("sharded step dispatches=%d, want >= 4", ex.GangDispatches)
	}
	if err := m.ParDo(16, func(c *Ctx, i int) {}); err != nil {
		t.Fatal(err)
	}
	if s := m.ExecStats().SerialSteps; s != 1 {
		t.Errorf("serial steps = %d, want 1", s)
	}
	m.ResetStats()
	if ex = m.ExecStats(); ex.GangDispatches != 0 || ex.GangFusedSettles != 0 || ex.SerialSteps != 0 {
		t.Errorf("ResetStats left gang counters %d %d %d",
			ex.GangDispatches, ex.GangFusedSettles, ex.SerialSteps)
	}
}

// TestGangAdaptiveMatchesFixed runs the same program with the adaptive
// cutoff on and frozen: wall-clock routing may differ, charged stats
// and memory must not.
func TestGangAdaptiveMatchesFixed(t *testing.T) {
	run := func(fixed bool) (Stats, []Word) {
		m := New(QRQW, 1<<16, WithSeed(9), WithWorkers(2))
		m.noAdapt = fixed
		defer m.Free()
		mem := gangProgram(t, m)
		return m.Stats(), mem
	}
	fixedStats, fixedMem := run(true)
	adaptStats, adaptMem := run(false)
	if fixedStats != adaptStats {
		t.Errorf("adaptive stats %+v\n want %+v", adaptStats, fixedStats)
	}
	for a := range fixedMem {
		if fixedMem[a] != adaptMem[a] {
			t.Fatalf("adaptive mem[%d] = %d, want %d", a, adaptMem[a], fixedMem[a])
		}
	}
}

// settledGoroutines returns the goroutine count once it has stopped
// moving: gangs of machines earlier tests dropped without Free retire
// from finalizers, so a collection runs them first and the count must
// hold still for a while before it can serve as a baseline.
func settledGoroutines(t *testing.T) int {
	t.Helper()
	runtime.GC()
	runtime.GC()
	deadline := time.Now().Add(5 * time.Second)
	g, still := runtime.NumGoroutine(), 0
	for still < 20 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count did not settle: %d", g)
		}
		time.Sleep(time.Millisecond)
		if n := runtime.NumGoroutine(); n != g {
			g, still = n, 0
		} else {
			still++
		}
	}
	return g
}

// TestGangNoGoroutineLeak is the lifecycle regression test: machines
// whose gangs engaged must leave zero resident goroutines behind after
// Free, and Reset must keep the armed gang (no re-spawn churn) without
// growing it.
func TestGangNoGoroutineLeak(t *testing.T) {
	base := settledGoroutines(t)
	const machines = 4
	ms := make([]*Machine, machines)
	for k := range ms {
		ms[k] = New(QRQW, 1<<15, WithWorkers(4))
		ms[k].noAdapt = true
		if err := ms[k].ParDo(2*serialCutoff, func(c *Ctx, i int) { c.Write(i, 1) }); err != nil {
			t.Fatal(err)
		}
		if g := ms[k].gang; g == nil || g.members != 4 {
			t.Fatalf("machine %d: gang did not arm at width 4: %+v", k, g)
		}
	}
	if g := runtime.NumGoroutine(); g < base+machines*3 {
		t.Fatalf("gangs did not arm: %d goroutines, base %d", g, base)
	}
	// Reset keeps the gang armed: running again must not spawn more.
	armed := runtime.NumGoroutine()
	for _, m := range ms {
		m.Reset()
		if err := m.ParDo(2*serialCutoff, func(c *Ctx, i int) { c.Write(i, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if g := runtime.NumGoroutine(); g > armed {
		t.Errorf("reset+rerun grew goroutines: %d > %d", g, armed)
	}
	for _, m := range ms {
		m.Free()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gang goroutines leaked after Free: %d, base %d",
				runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
