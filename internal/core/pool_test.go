package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"lowcontend/internal/machine"
	"lowcontend/internal/perm"
)

// TestSessionPoolBestFit pins the fit rule: a request takes the model's
// smallest idle session of at least the requested capacity; a request
// no idle session fits takes the model's largest idle session grown to
// exactly the requested size; and a session never serves another
// model.
func TestSessionPoolBestFit(t *testing.T) {
	p := NewSessionPool()
	defer p.Close()
	small := p.Acquire(QRQW, 1<<12, 1)
	large := p.Acquire(QRQW, 1<<14, 1)
	p.Release(large)
	p.Release(small)
	if got := p.Acquire(QRQW, 1<<13, 2); got != large {
		t.Error("a 1<<13 request did not get the 1<<14 session")
	}
	if got := p.Acquire(QRQW, 1<<12, 2); got != small {
		t.Error("a 1<<12 request did not get the 1<<12 session")
	}
	p.Release(small)
	p.Release(large)

	idle, st := p.Idle(), p.Stats()
	s := p.Acquire(QRQW, 1<<15, 3)
	if s != large {
		t.Fatal("a 1<<15 request did not take the largest idle session")
	}
	if got := s.Machine().MemWords(); got != 1<<15 {
		t.Errorf("grown session holds %d words, want %d", got, 1<<15)
	}
	if got := p.Stats(); got.News != st.News || got.Reuses != st.Reuses+1 {
		t.Errorf("stats %+v after growing an idle session, want one more reuse than %+v", got, st)
	}
	p.Release(s)
	if got := p.Idle(); got != idle {
		t.Errorf("Idle after growth = %d, want %d", got, idle)
	}

	e := p.Acquire(EREW, 1<<10, 4)
	if e.Model() != EREW {
		t.Errorf("EREW request got a %v session", e.Model())
	}
	p.Release(e)
	if got := p.Acquire(QRQW, 1<<16, 5); got == e {
		t.Error("Acquire reused a session across models")
	}
}

// TestSessionPoolReuseAcrossCapacities: a small request served by a
// larger idle session that an earlier lease dirtied runs exactly as on a
// fresh session of the requested size: same charged stats, same result,
// same memory contents.
func TestSessionPoolReuseAcrossCapacities(t *testing.T) {
	const want, held = 1 << 13, 1 << 16
	runs := []struct {
		name string
		run  func(*Session) (any, error)
	}{
		{"RandomPermutation", func(s *Session) (any, error) { return s.RandomPermutation(300) }},
		{"SortUniform", func(s *Session) (any, error) {
			keys := sortInput(1024, 3)
			err := s.SortUniform(keys, 1024)
			return keys, err
		}},
		{"BalanceLoads", func(s *Session) (any, error) {
			counts := make([]int, 256)
			counts[0], counts[17], counts[200] = 40, 9, 33
			return s.BalanceLoads(counts)
		}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			fresh := NewSession(QRQW, want, WithSeed(42))
			defer fresh.Close()
			wantRes, err := r.run(fresh)
			if err != nil {
				t.Fatal(err)
			}

			p := NewSessionPool()
			defer p.Close()
			big := p.Acquire(QRQW, held, 7)
			if _, err := r.run(big); err != nil {
				t.Fatal(err)
			}
			p.Release(big)
			s := p.Acquire(QRQW, want, 42)
			if s != big {
				t.Fatal("the 1<<13 request was not served by the idle 1<<16 session")
			}
			gotRes, err := r.run(s)
			if err != nil {
				t.Fatal(err)
			}
			if s.Stats() != fresh.Stats() {
				t.Errorf("reused stats %v, fresh %v", s.Stats(), fresh.Stats())
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Error("reused session produced a different result")
			}
			got, ref := s.Machine().LoadWords(0, want), fresh.Machine().LoadWords(0, want)
			for a := range ref {
				if got[a] != ref[a] {
					t.Fatalf("reused mem[%d] = %d, fresh %d", a, got[a], ref[a])
				}
			}
			p.Release(s)
		})
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
// and release clean — the next lease of that model is unprofiled,
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
		t.Fatal("Acquire did not reuse the profiled session")
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

// TestSessionPoolWorkers: Workers is a documented no-op (the benchmark
// module still sets it), so a pool with it set hands out sessions whose
// charged stats and engine counters match a fresh session's.
func TestSessionPoolWorkers(t *testing.T) {
	fresh := NewSession(QRQW, 1<<12, WithSeed(5))
	if _, err := fresh.RandomPermutation(200); err != nil {
		t.Fatal(err)
	}
	p := &SessionPool{Workers: 4}
	defer p.Close()
	s := p.Acquire(QRQW, 1<<12, 5)
	if _, err := s.RandomPermutation(200); err != nil {
		t.Fatal(err)
	}
	if s.Stats() != fresh.Stats() || s.ExecStats() != fresh.ExecStats() {
		t.Errorf("Workers=4 stats %v exec %+v, want %v exec %+v",
			s.Stats(), s.ExecStats(), fresh.Stats(), fresh.ExecStats())
	}
}

// sortInput builds a deterministic key slice.
func sortInput(n int, seed Word) []Word {
	keys := make([]Word, n)
	v := uint64(seed)
	for i := range keys {
		v = v*6364136223846793005 + 1442695040888963407
		keys[i] = Word((v >> 11) % uint64(n))
	}
	return keys
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
// the next lease of that model memory that reads zero there, and that
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
		t.Fatal("Acquire did not reuse the released session")
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
				p := &SessionPool{}
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
