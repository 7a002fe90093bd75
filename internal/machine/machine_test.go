package machine

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestModelString(t *testing.T) {
	cases := map[Model]string{
		EREW: "EREW", CREW: "CREW", QRQW: "QRQW", CRQW: "CRQW",
		CRCW: "CRCW", SIMDQRQW: "SIMD-QRQW", ScanSIMDQRQW: "scan-SIMD-QRQW",
		FetchAdd: "Fetch&Add",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Model(%d).String() = %q, want %q", m, got, want)
		}
	}
	if got := Model(200).String(); got != "Model(200)" {
		t.Errorf("unknown model string = %q", got)
	}
}

func TestModelCapabilities(t *testing.T) {
	if EREW.ConcurrentReads() || EREW.ConcurrentWrites() {
		t.Error("EREW must not allow concurrent access")
	}
	if !CREW.ConcurrentReads() || CREW.ConcurrentWrites() {
		t.Error("CREW allows concurrent reads only")
	}
	for _, m := range []Model{QRQW, CRQW, SIMDQRQW, ScanSIMDQRQW} {
		if !m.Queued() {
			t.Errorf("%v should be queued", m)
		}
	}
	for _, m := range []Model{EREW, CREW, CRCW, FetchAdd} {
		if m.Queued() {
			t.Errorf("%v should not be queued", m)
		}
	}
	if !ScanSIMDQRQW.HasUnitScan() || SIMDQRQW.HasUnitScan() {
		t.Error("scan capability wrong")
	}
	if !SIMDQRQW.SIMD() || !ScanSIMDQRQW.SIMD() || QRQW.SIMD() {
		t.Error("SIMD capability wrong")
	}
}

func TestAllocAndHostAccess(t *testing.T) {
	m := New(QRQW, 16)
	a := m.Alloc(10)
	b := m.Alloc(20) // forces growth past 16
	if a != 0 || b != 10 {
		t.Fatalf("Alloc bases = %d,%d", a, b)
	}
	if m.MemWords() < 30 {
		t.Fatalf("MemWords = %d, want >= 30", m.MemWords())
	}
	m.SetWord(b+5, 42)
	if m.Word(b+5) != 42 {
		t.Error("SetWord/Word roundtrip failed")
	}
	m.Store(a, []Word{1, 2, 3})
	got := m.LoadWords(a, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Store/LoadWords = %v", got)
	}
	m.Fill(a, 3, 7)
	if m.Word(a+2) != 7 {
		t.Error("Fill failed")
	}
	if m.Allocated() != 30 {
		t.Errorf("Allocated = %d", m.Allocated())
	}
}

// TestReserve: Reserve grows memory to exactly the words asked for,
// keeping contents, and never shrinks it, while an Alloc past capacity
// at least doubles it.
func TestReserve(t *testing.T) {
	m := New(QRQW, 8)
	m.SetWord(m.Alloc(2)+1, 7)
	m.Reserve(20)
	if got := m.MemWords(); got != 20 {
		t.Errorf("MemWords after Reserve(20) = %d, want 20", got)
	}
	if m.Word(1) != 7 {
		t.Error("Reserve lost memory contents")
	}
	m.Reserve(10)
	if got := m.MemWords(); got != 20 {
		t.Errorf("Reserve(10) shrank memory to %d words", got)
	}
	m.Alloc(21)
	if got := m.MemWords(); got != 40 {
		t.Errorf("MemWords after outgrowing 20 words = %d, want 40", got)
	}
}

func TestMarkRelease(t *testing.T) {
	m := New(QRQW, 8)
	base := m.Alloc(4)
	m.SetWord(base, 9)
	mark := m.Mark()
	scratch := m.Alloc(4)
	m.SetWord(scratch, 123)
	m.Release(mark)
	if m.Allocated() != 4 {
		t.Fatalf("Allocated after release = %d", m.Allocated())
	}
	again := m.Alloc(4)
	if again != scratch {
		t.Fatalf("realloc base = %d, want %d", again, scratch)
	}
	if m.Word(again) != 0 {
		t.Error("released memory was not zeroed")
	}
	if m.Word(base) != 9 {
		t.Error("release clobbered retained memory")
	}
	// The peak is the high-water mark: Release does not lower it, and
	// Reset clears it.
	if got := m.PeakAllocated(); got != 8 {
		t.Errorf("PeakAllocated = %d, want 8", got)
	}
	m.Release(mark)
	if got := m.PeakAllocated(); got != 8 {
		t.Errorf("PeakAllocated after Release = %d, want 8", got)
	}
	m.Reset()
	if got := m.PeakAllocated(); got != 0 {
		t.Errorf("PeakAllocated after Reset = %d, want 0", got)
	}
}

func TestReadsSeePreStepMemory(t *testing.T) {
	// Processor i reads cell i and writes cell (i+1) mod n. All reads
	// must observe the pre-step values even though writes target read
	// cells.
	const n = 100
	m := New(CRCW, n)
	for i := 0; i < n; i++ {
		m.SetWord(i, Word(i))
	}
	vals := make([]Word, n)
	if err := m.ParDo(n, func(c *Ctx, i int) {
		vals[i] = c.Read(i)
		c.Write((i+1)%n, 1000+Word(i))
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if vals[i] != Word(i) {
			t.Fatalf("read %d observed %d (same-step write leaked)", i, vals[i])
		}
		want := Word(1000 + (i-1+n)%n)
		if m.Word(i) != want {
			t.Fatalf("cell %d = %d after step, want %d", i, m.Word(i), want)
		}
	}
}

func TestWriteArbitrationHighestProcWins(t *testing.T) {
	m := New(CRCW, 1)
	if err := m.ParDo(64, func(c *Ctx, i int) {
		c.Write(0, Word(i))
	}); err != nil {
		t.Fatal(err)
	}
	if m.Word(0) != 63 {
		t.Errorf("arbitration winner value = %d, want 63", m.Word(0))
	}
}

func TestQRQWCostIsContention(t *testing.T) {
	const p = 500
	m := New(QRQW, 4)
	if err := m.ParDo(p, func(c *Ctx, i int) {
		c.Read(0) // all processors read cell 0
	}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Time != p {
		t.Errorf("QRQW time for contention-%d step = %d, want %d", p, st.Time, p)
	}
	if st.MaxContention != p {
		t.Errorf("MaxContention = %d, want %d", st.MaxContention, p)
	}
}

func TestCRQWFreeReadsQueuedWrites(t *testing.T) {
	const p = 300
	m := New(CRQW, 4)
	if err := m.ParDo(p, func(c *Ctx, i int) {
		c.Read(0)
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 1 {
		t.Errorf("CRQW concurrent-read step cost = %d, want 1", got)
	}
	if err := m.ParDo(p, func(c *Ctx, i int) {
		c.Write(1, 5)
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 1+p {
		t.Errorf("CRQW after write step time = %d, want %d", got, 1+p)
	}
}

func TestCRCWCostIgnoresContention(t *testing.T) {
	const p = 300
	m := New(CRCW, 4)
	if err := m.ParDo(p, func(c *Ctx, i int) {
		c.Read(0)
		c.Write(0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 1 {
		t.Errorf("CRCW step cost = %d, want 1", got)
	}
}

func TestStepCostIsMaxOps(t *testing.T) {
	m := New(QRQW, 64)
	if err := m.ParDo(8, func(c *Ctx, i int) {
		if i == 3 {
			for j := 0; j < 5; j++ {
				c.Read(8 * j) // disjoint cells: contention 1, m = 5
			}
		} else {
			c.Read(i)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 5 {
		t.Errorf("step cost = %d, want m = 5", got)
	}
}

func TestComputeCharged(t *testing.T) {
	m := New(QRQW, 4)
	if err := m.ParDo(2, func(c *Ctx, i int) {
		c.Compute(17)
	}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Time != 17 {
		t.Errorf("compute-only step cost = %d, want 17", st.Time)
	}
	if st.ComputeOps != 34 {
		t.Errorf("ComputeOps = %d, want 34", st.ComputeOps)
	}
}

func TestEmptyStepCostsOne(t *testing.T) {
	m := New(QRQW, 4)
	if err := m.ParDo(10, func(c *Ctx, i int) {}); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 1 {
		t.Errorf("empty step cost = %d, want 1", got)
	}
}

func TestEREWViolationRead(t *testing.T) {
	m := New(EREW, 4)
	err := m.ParDo(2, func(c *Ctx, i int) { c.Read(0) })
	var ve *ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want ViolationError", err)
	}
	if ve.Kind != "concurrent-read" || ve.Count != 2 || ve.Addr != 0 {
		t.Errorf("violation = %+v", ve)
	}
	// Error is sticky.
	if err2 := m.ParDo(1, func(c *Ctx, i int) {}); !errors.As(err2, &ve) {
		t.Error("violation not sticky")
	}
	if m.Err() == nil {
		t.Error("Err() should report the violation")
	}
	if ve.Error() == "" {
		t.Error("empty error message")
	}
}

func TestEREWViolationWrite(t *testing.T) {
	m := New(EREW, 4)
	err := m.ParDo(3, func(c *Ctx, i int) { c.Write(2, 1) })
	var ve *ViolationError
	if !errors.As(err, &ve) || ve.Kind != "concurrent-write" || ve.Count != 3 {
		t.Fatalf("err = %v", err)
	}
}

func TestCREWAllowsConcurrentReadsRejectsWrites(t *testing.T) {
	m := New(CREW, 4)
	if err := m.ParDo(5, func(c *Ctx, i int) { c.Read(0) }); err != nil {
		t.Fatalf("CREW concurrent read rejected: %v", err)
	}
	err := m.ParDo(2, func(c *Ctx, i int) { c.Write(0, 1) })
	var ve *ViolationError
	if !errors.As(err, &ve) || ve.Kind != "concurrent-write" {
		t.Fatalf("err = %v", err)
	}
}

func TestSIMDMultiOpViolation(t *testing.T) {
	m := New(SIMDQRQW, 8)
	err := m.ParDo(2, func(c *Ctx, i int) {
		c.Read(0)
		c.Read(1)
	})
	var ve *ViolationError
	if !errors.As(err, &ve) || ve.Kind != "simd-multi-op" {
		t.Fatalf("err = %v", err)
	}
	if ve.Error() == "" {
		t.Error("empty error message")
	}
}

func TestSIMDQRQWCost(t *testing.T) {
	m := New(SIMDQRQW, 8)
	if err := m.ParDo(7, func(c *Ctx, i int) { c.Write(3, Word(i)) }); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Time; got != 7 {
		t.Errorf("SIMD-QRQW cost = %d, want 7", got)
	}
}

func TestDeterministicRand(t *testing.T) {
	run := func() []Word {
		m := New(QRQW, 256, WithSeed(99))
		out := make([]Word, 256)
		m.ParDo(256, func(c *Ctx, i int) {
			out[i] = Word(c.Rand().Uint64() >> 1)
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rand not deterministic at proc %d", i)
		}
	}
	// Different steps must give different streams.
	m := New(QRQW, 4, WithSeed(99))
	var s1, s2 Word
	m.ParDo(1, func(c *Ctx, i int) { s1 = Word(c.Rand().Uint64() >> 1) })
	m.ParDo(1, func(c *Ctx, i int) { s2 = Word(c.Rand().Uint64() >> 1) })
	if s1 == s2 {
		t.Error("distinct steps produced identical streams")
	}
}

func TestStatsAccumulation(t *testing.T) {
	m := New(QRQW, 16)
	m.ParDo(4, func(c *Ctx, i int) { c.Read(i); c.Write(i+4, 1) })
	m.ParDo(2, func(c *Ctx, i int) { c.Read(0) })
	st := m.Stats()
	if st.Steps != 2 {
		t.Errorf("Steps = %d", st.Steps)
	}
	if st.ReadOps != 6 || st.WriteOps != 4 {
		t.Errorf("ReadOps=%d WriteOps=%d", st.ReadOps, st.WriteOps)
	}
	if st.Time != 1+2 {
		t.Errorf("Time = %d, want 3", st.Time)
	}
	if st.PTWork != 4*1+2*2 {
		t.Errorf("PTWork = %d, want 8", st.PTWork)
	}
	if st.MaxProcs != 4 {
		t.Errorf("MaxProcs = %d", st.MaxProcs)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Steps: 2, Time: 5, Ops: 10, PTWork: 20, MaxContention: 3, SumContention: 4, MaxProcs: 8}
	b := Stats{Steps: 1, Time: 2, Ops: 3, PTWork: 4, MaxContention: 7, SumContention: 2, MaxProcs: 2}
	sum := a.Add(b)
	if sum.Steps != 3 || sum.Time != 7 || sum.Ops != 13 || sum.PTWork != 24 {
		t.Errorf("Add = %+v", sum)
	}
	if sum.MaxContention != 7 || sum.MaxProcs != 8 {
		t.Errorf("Add max fields = %+v", sum)
	}
	diff := sum.Sub(b)
	if diff.Steps != a.Steps || diff.Time != a.Time || diff.Ops != a.Ops {
		t.Errorf("Sub = %+v", diff)
	}
}

func TestTrace(t *testing.T) {
	m := New(QRQW, 8, WithTrace())
	m.ParDoL(3, "phase-x", func(c *Ctx, i int) { c.Read(0) })
	tr := m.StepTraces()
	if len(tr) != 1 {
		t.Fatalf("trace len = %d", len(tr))
	}
	if tr[0].Label != "phase-x" || tr[0].Procs != 3 || tr[0].ReadCont != 3 || tr[0].Cost != 3 {
		t.Errorf("trace = %+v", tr[0])
	}
}

func TestResetAndResetStats(t *testing.T) {
	m := New(EREW, 8)
	m.Alloc(4)
	m.SetWord(0, 5)
	m.ParDo(2, func(c *Ctx, i int) { c.Read(0) }) // violation
	m.ResetStats()
	if m.Err() != nil || m.Stats().Steps != 0 {
		t.Error("ResetStats did not clear error/stats")
	}
	if m.Word(0) != 5 {
		t.Error("ResetStats must not clear memory")
	}
	m.Reset()
	if m.Word(0) != 0 || m.Allocated() != 0 {
		t.Error("Reset must clear memory and allocations")
	}
}

func TestFree(t *testing.T) {
	m := New(QRQW, 1<<12)
	m.Alloc(100)
	m.SetWord(0, 7)
	if err := m.ParDo(4096, func(c *Ctx, i int) { c.Write(i%100, 1) }); err != nil {
		t.Fatal(err)
	}
	m.Free()
	if m.MemWords() != 0 || m.Allocated() != 0 {
		t.Fatalf("Free left MemWords=%d Allocated=%d", m.MemWords(), m.Allocated())
	}
	if m.Stats() != (Stats{}) || m.Err() != nil {
		t.Error("Free must clear stats and error")
	}
	// The machine must remain fully usable: memory re-grows on demand.
	base := m.Alloc(8)
	if base != 0 || m.Word(base) != 0 {
		t.Fatalf("post-Free Alloc base=%d val=%d", base, m.Word(base))
	}
	if err := m.ParDo(8, func(c *Ctx, i int) { c.Write(base+i, Word(i)) }); err != nil {
		t.Fatal(err)
	}
	if m.Word(base+7) != 7 {
		t.Error("post-Free step did not execute")
	}
}

func TestReuseAcrossRuns(t *testing.T) {
	// The same program run twice on one machine — separated by Reset or
	// by Free — must charge identical stats and produce identical memory.
	program := func(m *Machine) []Word {
		base := m.Alloc(512)
		if err := m.ParDo(512, func(c *Ctx, i int) {
			c.Write(base+c.Rand().Intn(512), Word(i))
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.ParDo(512, func(c *Ctx, i int) {
			v := c.Read(base + i)
			c.Write(base+i, v+1)
		}); err != nil {
			t.Fatal(err)
		}
		return m.LoadWords(base, 512)
	}
	m := New(QRQW, 1<<10, WithSeed(42))
	mem1 := program(m)
	st1 := m.Stats()
	m.Reset()
	mem2 := program(m)
	st2 := m.Stats()
	m.Free()
	mem3 := program(m)
	st3 := m.Stats()
	if st1 != st2 || st1 != st3 {
		t.Fatalf("stats differ across reuse: %v / %v / %v", st1, st2, st3)
	}
	for i := range mem1 {
		if mem1[i] != mem2[i] || mem1[i] != mem3[i] {
			t.Fatalf("memory differs at %d after reuse", i)
		}
	}
}

func TestReseedReplaysFreshMachine(t *testing.T) {
	// Reset+Reseed must make a reused machine replay exactly the run of a
	// fresh machine constructed with the new seed: same memory, same
	// stats. This is the invariant the core.SessionPool relies on.
	program := func(m *Machine) []Word {
		base := m.Alloc(256)
		if err := m.ParDo(256, func(c *Ctx, i int) {
			c.Write(base+c.Rand().Intn(256), Word(i))
		}); err != nil {
			t.Fatal(err)
		}
		return m.LoadWords(base, 256)
	}
	fresh := New(QRQW, 1<<9, WithSeed(77))
	memFresh := program(fresh)
	stFresh := fresh.Stats()

	reused := New(QRQW, 1<<9, WithSeed(13))
	program(reused) // dirty the machine under a different seed
	reused.Reset()
	reused.Reseed(77)
	if reused.Seed() != 77 {
		t.Fatalf("Seed() = %d after Reseed(77)", reused.Seed())
	}
	memReused := program(reused)
	if st := reused.Stats(); st != stFresh {
		t.Fatalf("reseeded stats %v, want %v", st, stFresh)
	}
	for i := range memFresh {
		if memFresh[i] != memReused[i] {
			t.Fatalf("memory differs at %d after Reseed", i)
		}
	}
}

func TestBulkMatchesScalarAcrossPaths(t *testing.T) {
	// Descriptor-vs-scalar replay: a program whose Bulk steps use every
	// descriptor form — ranges, gathers, hot-cell lists, fills, and cells
	// one processor reaches through several descriptors — must produce
	// identical Stats, violations, step traces, and hot cells as its
	// element-by-element ParDo replay, with and without analytic bulk
	// settlement.
	const n = 6144
	const blk = 4
	program := func(m *Machine, bulk bool) error {
		base := m.Alloc(blk * n)
		hot := m.Alloc(1)
		sum := m.Alloc(n)
		// Disjoint per-processor blocks.
		if bulk {
			b := m.Bulk(n, "")
			vals := b.Vals(blk * n)
			for i := range n {
				for k := range blk {
					vals[blk*i+k] = Word(i + k)
				}
			}
			b.WriteRange(base, blk*n, 1, 0, blk, vals)
			if err := b.Commit(); err != nil {
				return err
			}
		} else if err := m.ParDo(n, func(c *Ctx, i int) {
			for k := 0; k < blk; k++ {
				c.Write(base+blk*i+k, Word(i+k))
			}
		}); err != nil {
			return err
		}
		// Strided reads plus writes into the next processor's block (the
		// last processor wraps around to the first block): contention one.
		if bulk {
			b := m.Bulk(n, "")
			vs := b.ReadRange(base, 2*n, 2, 0, 2)
			b.WriteRange(base+blk, 2*(n-1), 2, 0, 2, vs[:2*(n-1)])
			b.WriteRange(base, 2, 2, n-1, 2, vs[2*(n-1):])
			if err := b.Commit(); err != nil {
				return err
			}
		} else if err := m.ParDo(n, func(c *Ctx, i int) {
			j := (i + 1) % n
			v0 := c.Read(base + blk*i)
			v1 := c.Read(base + blk*i + 2)
			c.Write(base+blk*j, v0)
			c.Write(base+blk*j+2, v1)
		}); err != nil {
			return err
		}
		// An unsorted gather read twice (a processor's repeated cells
		// dedupe across descriptors) plus a hot-cell read every 512th
		// processor: real contention for the hot-cell attribution to rank.
		if bulk {
			b := m.Bulk(n, "")
			idx := make([]int, n)
			for i := range idx {
				idx[i] = base + (i*37)%n
			}
			g1 := b.Gather(idx, 0)
			g2 := b.Gather(idx, 0)
			own := b.ReadRange(base, n, blk, 0, 1)
			acc := b.Vals(n)
			for i := range acc {
				acc[i] = g1[i] + g2[i] + own[i]
			}
			for i := 0; i < n; i += 512 {
				acc[i] += b.Gather([]int{hot}, i)[0]
			}
			b.WriteRange(sum, n, 1, 0, 1, acc)
			if err := b.Commit(); err != nil {
				return err
			}
		} else if err := m.ParDo(n, func(c *Ctx, i int) {
			var acc Word
			for _, a := range [3]int{base + (i*37)%n, base + (i*37)%n, base + blk*i} {
				acc += c.Read(a)
			}
			if i%512 == 0 {
				acc += c.Read(hot)
			}
			c.Write(sum+i, acc)
		}); err != nil {
			return err
		}
		// A hot cell written by a quarter of the processors (one
		// repeated-cell scatter): the highest writer's value survives.
		if bulk {
			b := m.Bulk(n, "hotwrite")
			vals := b.Vals(n / 4)
			for k := range vals {
				vals[k] = Word(k + 1)
			}
			b.Scatter(slices.Repeat([]int{hot}, n/4), n/4, vals)
			if err := b.Commit(); err != nil {
				return err
			}
		} else if err := m.ParDoL(n, "hotwrite", func(c *Ctx, i int) {
			if i >= n/4 && i < n/2 {
				c.Write(hot, Word(i-n/4+1))
			}
		}); err != nil {
			return err
		}
		// Descriptor-only step vs its ParDo replay: a hot cell read by
		// half the processors (one repeated-cell gather), a strided
		// copy, and a fill.
		if bulk {
			b := m.Bulk(n, "bulkstep")
			b.Gather(slices.Repeat([]int{hot}, n/2), 0)
			b.WriteRange(hot, 1, 1, n-1, 1, []Word{42})
			src := b.ReadRange(base, n, 1, 0, 1)
			b.WriteRange(base+blk*n-n, n, 1, 0, 1, src)
			b.FillRange(sum, n/2, 2, n/2, 1, 7)
			return b.Commit()
		}
		return m.ParDoL(n, "bulkstep", func(c *Ctx, i int) {
			if i < n/2 {
				c.Read(hot)
			}
			if i == n-1 {
				c.Write(hot, 42)
			}
			c.Write(base+blk*n-n+i, c.Read(base+i))
			if i >= n/2 {
				c.Write(sum+2*(i-n/2), 7)
			}
		})
	}
	type result struct {
		st    Stats
		trace string
		mem   []Word
		err   string
	}
	run := func(bulk, noBulkFast bool) result {
		m := New(QRQW, 1, WithSeed(9), WithHotCells(3))
		m.noBulkFast = noBulkFast
		err := program(m, bulk)
		r := result{st: m.Stats(), trace: fmt.Sprintf("%+v", m.StepTraces()), mem: m.LoadWords(0, m.Allocated())}
		if err != nil {
			r.err = err.Error()
		}
		return r
	}
	ref := run(false, false)
	for _, noBulkFast := range []bool{false, true} {
		got := run(true, noBulkFast)
		label := fmt.Sprintf("noBulkFast=%v", noBulkFast)
		if got.err != ref.err {
			t.Fatalf("%s: err %q, want %q", label, got.err, ref.err)
		}
		if got.st != ref.st {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", label, got.st, ref.st)
		}
		if got.trace != ref.trace {
			t.Fatalf("%s: traces differ\n got %s\nwant %s", label, got.trace, ref.trace)
		}
		for i := range ref.mem {
			if got.mem[i] != ref.mem[i] {
				t.Fatalf("%s: memory differs at %d: %d vs %d", label, i, got.mem[i], ref.mem[i])
			}
		}
	}
}

func TestParDoRejectsBadP(t *testing.T) {
	m := New(QRQW, 4)
	if err := m.ParDo(0, func(c *Ctx, i int) {}); err == nil {
		t.Error("ParDo(0) should fail")
	}
	if err := m.ParDo(-3, func(c *Ctx, i int) {}); err == nil {
		t.Error("ParDo(-3) should fail")
	}
}

func TestScanStepOnlyOnScanModel(t *testing.T) {
	m := New(SIMDQRQW, 8)
	if err := m.ScanStep(0, 0, 4); !errors.Is(err, ErrNoUnitScan) {
		t.Errorf("err = %v, want ErrNoUnitScan", err)
	}
}

func TestScanAdd(t *testing.T) {
	m := New(ScanSIMDQRQW, 16)
	m.Store(0, []Word{3, 1, 4, 1, 5})
	if err := m.ScanStep(0, 8, 5); err != nil {
		t.Fatal(err)
	}
	want := []Word{0, 3, 4, 8, 9}
	got := m.LoadWords(8, 5)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan add = %v, want %v", got, want)
		}
	}
	if m.Stats().Time != 1 || m.Stats().ScanSteps != 1 {
		t.Errorf("scan cost wrong: %+v", m.Stats())
	}
}

func TestScanAddInPlace(t *testing.T) {
	m := New(ScanSIMDQRQW, 8)
	m.Store(0, []Word{1, 1, 1, 1})
	if err := m.ScanStep(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	want := []Word{0, 1, 2, 3}
	for i, w := range want {
		if m.Word(i) != w {
			t.Fatalf("in-place scan cell %d = %d, want %d", i, m.Word(i), w)
		}
	}
}

func TestQuickContentionCostProperty(t *testing.T) {
	// Property: on QRQW, a step in which k processors hit one cell and
	// the rest hit private cells costs exactly max(k, 1).
	f := func(k uint8, spread uint8) bool {
		kk := int(k%64) + 1
		sp := int(spread%64) + 1
		n := kk + sp
		m := New(QRQW, n+1)
		err := m.ParDo(n, func(c *Ctx, i int) {
			if i < kk {
				c.Read(n) // shared hot cell
			} else {
				c.Read(i) // private cell
			}
		})
		if err != nil {
			return false
		}
		return m.Stats().Time == int64(kk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickWriteWinnerDeterminism(t *testing.T) {
	// Property: with all processors writing one cell, the highest index
	// always wins regardless of processor count.
	f := func(pRaw uint16) bool {
		p := int(pRaw%4000) + 1
		m := New(CRCW, 1)
		if err := m.ParDo(p, func(c *Ctx, i int) { c.Write(0, Word(i)) }); err != nil {
			return false
		}
		return m.Word(0) == Word(p-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
