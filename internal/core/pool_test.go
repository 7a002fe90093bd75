package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lowcontend/internal/machine"
	"lowcontend/internal/perm"
)

func TestSessionPoolReusesByShape(t *testing.T) {
	p := NewSessionPool()
	a := p.Acquire(QRQW, 1<<12, 1)
	b := p.Acquire(QRQW, 1<<14, 1)
	p.Release(a)
	p.Release(b)
	// Same shape comes back from the pool; a different shape does not.
	if got := p.Acquire(QRQW, 1<<12, 2); got != a {
		t.Error("same-shape Acquire did not reuse the idle session")
	}
	if got := p.Acquire(EREW, 1<<14, 2); got == b {
		t.Error("Acquire reused a session across models")
	}
	st := p.Stats()
	if st.Acquires != 4 || st.Reuses != 1 || st.News != 3 {
		t.Errorf("PoolStats = %+v, want 4 acquires / 1 reuse / 3 new", st)
	}
}

func TestSessionPoolReuseIsBitIdentical(t *testing.T) {
	// A pooled session dirtied by one run and re-acquired under a new
	// seed must replay exactly the run of a fresh session with that seed.
	fresh := NewSession(QRQW, 1<<13, WithSeed(42))
	want, err := fresh.RandomPermutation(300)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := fresh.Stats()

	p := NewSessionPool()
	s := p.Acquire(QRQW, 1<<13, 7)
	if _, err := s.RandomPermutation(300); err != nil {
		t.Fatal(err)
	}
	p.Release(s)
	s = p.Acquire(QRQW, 1<<13, 42)
	got, err := s.RandomPermutation(300)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != wantStats {
		t.Fatalf("pooled stats %v, want %v", st, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("pooled session produced a different permutation")
		}
	}
}

// TestAcquireProfiledLeavesNoResidue: a profiled lease must behave
// identically to an unprofiled one (same charged stats, same results)
// and release clean — the next lease of the same shape is unprofiled,
// carries no trace, and replays fresh behavior bit-for-bit.
func TestAcquireProfiledLeavesNoResidue(t *testing.T) {
	fresh := NewSession(QRQW, 1<<13, WithSeed(42))
	want, err := fresh.RandomPermutation(300)
	if err != nil {
		t.Fatal(err)
	}
	wantStats := fresh.Stats()

	p := NewSessionPool()
	s := p.AcquireProfiled(QRQW, 1<<13, 42, 4)
	got, err := s.RandomPermutation(300)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st != wantStats {
		t.Fatalf("profiled stats %v, want unprofiled %v — profiling must only observe", st, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("profiled session produced a different permutation")
		}
	}
	if tr := s.StepTraces(); len(tr) == 0 {
		t.Fatal("profiled session recorded no trace")
	} else if len(tr[0].HotCells) == 0 && len(tr[len(tr)-1].HotCells) == 0 {
		t.Error("profiled trace carries no hot cells")
	}
	p.Release(s)

	s2 := p.Acquire(QRQW, 1<<13, 42)
	if s2 != s {
		t.Fatal("same-shape Acquire did not reuse the profiled session")
	}
	if tr := s2.StepTraces(); len(tr) != 0 {
		t.Errorf("reused session leaked %d trace entries from the profiled lease", len(tr))
	}
	if _, err := s2.RandomPermutation(300); err != nil {
		t.Fatal(err)
	}
	if tr := s2.StepTraces(); len(tr) != 0 {
		t.Errorf("reused session still traces: %d entries", len(tr))
	}
	if st := s2.Stats(); st != wantStats {
		t.Fatalf("post-profiling reuse stats %v, want %v", st, wantStats)
	}
}

func TestSessionPoolConcurrent(t *testing.T) {
	// Many goroutines hammering one pool (run under -race in CI): every
	// run's charged stats must equal a sequential fresh-session reference
	// for its seed, regardless of which pooled machine served it.
	const goroutines, runsEach, n = 8, 6, 128
	ref := make(map[uint64]machine.Stats)
	for g := range goroutines {
		for r := range runsEach {
			seed := uint64(g*runsEach+r) + 1
			s := NewSession(QRQW, 1<<12, WithSeed(seed))
			if _, err := s.RandomPermutation(n); err != nil {
				t.Fatal(err)
			}
			ref[seed] = s.Stats()
		}
	}

	p := NewSessionPool()
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*runsEach)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range runsEach {
				seed := uint64(g*runsEach+r) + 1
				s := p.Acquire(QRQW, 1<<12, seed)
				pm, err := s.RandomPermutation(n)
				if err != nil {
					errs <- err
					return
				}
				if !perm.IsPermutation(pm) {
					t.Error("pooled run produced an invalid permutation")
				}
				if st := s.Stats(); st != ref[seed] {
					t.Errorf("seed %d: pooled stats %v, want %v", seed, st, ref[seed])
				}
				p.Release(s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Acquires != goroutines*runsEach {
		t.Errorf("Acquires = %d, want %d", st.Acquires, goroutines*runsEach)
	}
}

func TestSessionPoolClose(t *testing.T) {
	p := NewSessionPool()
	s := p.Acquire(QRQW, 1<<10, 1)
	p.Release(s)
	p.Close()
	if s.Machine().MemWords() != 0 {
		t.Error("Close did not free idle sessions")
	}
	// The pool stays usable after Close.
	s2 := p.Acquire(QRQW, 1<<10, 2)
	if _, err := s2.RandomPermutation(64); err != nil {
		t.Fatal(err)
	}
}

func TestSessionPoolWorkers(t *testing.T) {
	// Workers bounds step-level host parallelism without changing charged
	// stats.
	fresh := NewSession(QRQW, 1<<12, WithSeed(5))
	if _, err := fresh.RandomPermutation(200); err != nil {
		t.Fatal(err)
	}
	p := &SessionPool{Workers: 1}
	s := p.Acquire(QRQW, 1<<12, 5)
	if _, err := s.RandomPermutation(200); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != fresh.Stats() {
		t.Errorf("Workers=1 stats %v, want %v", s.Stats(), fresh.Stats())
	}
}

// sortInput builds a deterministic key slice for the gang-counter test.
func sortInput(n int, seed Word) []Word {
	keys := make([]Word, n)
	v := uint64(seed)
	for i := range keys {
		v = v*6364136223846793005 + 1442695040888963407
		keys[i] = Word((v >> 11) % uint64(n))
	}
	return keys
}

// TestSessionPoolGangCounters: pooled machines running gang-width steps
// surface their dispatch counters through StatsLive's ExecStats
// (harvested on Release), charged stats stay identical to a serial
// fresh session, and Close retires every resident gang without leaking
// goroutines.
// SortUniform drives the machine through real ParDo steps at p = n, so
// the gang engages; descriptor-only Bulk commits (e.g. the perm
// algorithms) settle serially by design and would not.
func TestSessionPoolGangCounters(t *testing.T) {
	base := runtime.NumGoroutine()
	const n = 4096
	fresh := NewSession(QRQW, 1<<16, WithSeed(3))
	if err := fresh.SortUniform(sortInput(n, 3), Word(n)); err != nil {
		t.Fatal(err)
	}
	// The reference runs at the default gang width: close it so its
	// resident gang does not count against the leak check below.
	want := fresh.Stats()
	fresh.Close()

	p := &SessionPool{Workers: 4}
	s := p.Acquire(QRQW, 1<<16, 3)
	keys := sortInput(n, 3)
	if err := s.SortUniform(keys, Word(n)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] {
			t.Fatal("gang-width sort produced unsorted output")
		}
	}
	if s.Stats() != want {
		t.Errorf("gang-width pooled stats %v, want %v", s.Stats(), want)
	}
	p.Release(s)

	_, ex := p.StatsLive()
	if ex.GangDispatches == 0 {
		t.Error("ExecStats.GangDispatches = 0 after a gang-width run")
	}
	if ex.GangFusedSettles == 0 {
		t.Error("ExecStats.GangFusedSettles = 0 after a gang-width run")
	}
	if ex.SerialSteps == 0 {
		t.Error("ExecStats.SerialSteps = 0 — sub-cutoff steps should run serial")
	}

	// A reused lease keeps accumulating into the pool's totals.
	s = p.Acquire(QRQW, 1<<16, 4)
	if err := s.SortUniform(sortInput(n, 4), Word(n)); err != nil {
		t.Fatal(err)
	}
	p.Release(s)
	if _, ex2 := p.StatsLive(); ex2.GangDispatches <= ex.GangDispatches {
		t.Errorf("GangDispatches did not accumulate: %d -> %d",
			ex.GangDispatches, ex2.GangDispatches)
	}

	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("pool Close leaked gang goroutines: %d, base %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatsLiveSeesLeasedSessions: the engine counters of a session
// still out on lease are visible to StatsLive at scrape time, exactly
// match the session's own view, and Release folds them into the pool's
// totals without double-counting.
func TestStatsLiveSeesLeasedSessions(t *testing.T) {
	p := NewSessionPool()
	defer p.Close()
	s := p.Acquire(QRQW, 1<<12, 1)
	if err := s.SortUniform(sortInput(1024, 1), Word(1024)); err != nil {
		t.Fatal(err)
	}
	want := s.ExecStats()
	if want.BulkDescriptors == 0 && want.SerialSteps == 0 {
		t.Fatalf("session recorded no engine work: %+v", want)
	}
	if _, exLive := p.StatsLive(); exLive != want {
		t.Errorf("live exec stats %+v != leased session's %+v", exLive, want)
	}
	p.Release(s)
	if _, exAfter := p.StatsLive(); exAfter != want {
		t.Errorf("exec stats after release %+v, want %+v (no double count)", exAfter, want)
	}
}

// TestSessionPoolCrossLeaseZero: a lease that wrote near the top of its
// capacity — through an engine step and through a host store — hands
// the next lease of that shape memory that reads zero there, and that
// lease charges and leaves exactly what a fresh session does.
func TestSessionPoolCrossLeaseZero(t *testing.T) {
	const capWords = 1 << 14
	p := NewSessionPool()
	defer p.Close()
	s := p.Acquire(QRQW, capWords, 7)
	m := s.Machine()
	if err := m.ParDo(16, func(c *machine.Ctx, i int) { c.Write(capWords-1-i, Word(i+1)) }); err != nil {
		t.Fatal(err)
	}
	m.Store(capWords-64, []Word{5, 6, 7})
	p.Release(s)

	r := p.Acquire(QRQW, capWords, 42)
	if r != s {
		t.Fatal("same-shape Acquire did not reuse the released session")
	}
	for a := capWords - 64; a < capWords; a++ {
		if v := r.Machine().Word(a); v != 0 {
			t.Fatalf("reused lease reads %d at %d, want 0", v, a)
		}
	}
	if _, err := r.RandomPermutation(300); err != nil {
		t.Fatal(err)
	}
	fresh := NewSession(QRQW, capWords, WithSeed(42))
	defer fresh.Close()
	if _, err := fresh.RandomPermutation(300); err != nil {
		t.Fatal(err)
	}
	if r.Stats() != fresh.Stats() {
		t.Errorf("reused lease stats %v, want %v", r.Stats(), fresh.Stats())
	}
	rm, fm := r.Machine(), fresh.Machine()
	if rm.MemWords() != fm.MemWords() {
		t.Fatalf("reused lease capacity %d, fresh %d", rm.MemWords(), fm.MemWords())
	}
	got, want := rm.LoadWords(0, rm.MemWords()), fm.LoadWords(0, fm.MemWords())
	for a := range want {
		if got[a] != want[a] {
			t.Fatalf("reused lease mem[%d] = %d, fresh %d", a, got[a], want[a])
		}
	}
	p.Release(r)
}

// BenchmarkSessionRelease measures SessionPool.Release (and the
// re-Acquire that hands the session back) after a lease wrote a given
// number of words. Reset clears only up to the machine's dirty mark, so
// at 1k words written the cost is flat across capacity; at capacity
// written it scales with the words cleared.
func BenchmarkSessionRelease(b *testing.B) {
	for _, capWords := range []int{1 << 14, 1 << 20, 1 << 21} {
		for _, written := range []int{1 << 10, capWords} {
			name := fmt.Sprintf("cap=%dk/written=%dk", capWords>>10, written>>10)
			b.Run(name, func(b *testing.B) {
				p := &SessionPool{Workers: 1}
				defer p.Close()
				s := p.Acquire(QRQW, capWords, 1)
				b.ResetTimer()
				for range b.N {
					b.StopTimer()
					s.Machine().Fill(0, written, 1)
					b.StartTimer()
					p.Release(s)
					s = p.Acquire(QRQW, capWords, 1)
				}
				b.StopTimer()
				p.Release(s)
			})
		}
	}
}
