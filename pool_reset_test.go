package lowcontend

import (
	"os"
	"path/filepath"
	"testing"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// TestPooledSessionsReleaseZeroed is the end-to-end soundness check of
// the machine's dirty high-water mark, through public API only: after
// every builtin experiment and every committed dynamic definition has
// run over one shared pool, concurrently, each idle session the pool
// would hand out next reads zero at every word of its capacity. Reset
// clears only below the mark, so a write path that failed to raise it
// would leave a nonzero word here.
func TestPooledSessionsReleaseZeroed(t *testing.T) {
	pool := core.NewSessionPool()
	defer pool.Close()
	runner := &spec.Runner{Parallel: 4, Pool: pool}

	// Builtins run at 2048; definitions run on their own grid.
	const size = 2048
	type job struct {
		e     spec.Experiment
		sizes []int
	}
	var jobs []job
	for _, e := range exp.Registry() {
		jobs = append(jobs, job{e, []int{size}})
	}
	defs, err := filepath.Glob(filepath.Join("testdata", "definitions", "*.json"))
	if err != nil || len(defs) == 0 {
		t.Fatalf("no dynamic definitions found: %v", err)
	}
	for _, path := range defs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
		if derr != nil {
			t.Fatalf("%s: %v", path, derr)
		}
		e := dynamic.Compile(def)
		jobs = append(jobs, job{e, e.DefaultSizes})
	}
	for _, j := range jobs {
		if err := runner.Run(j.e, j.sizes, goldenSeed).FirstErr(); err != nil {
			t.Fatalf("%s: %v", j.e.Name, err)
		}
	}

	// Drain every model's idle sessions: a 1-word request fits every
	// idle session, so Acquire keeps handing back idle ones until the
	// pool has to construct a fresh session.
	models := []machine.Model{machine.EREW, machine.CREW, machine.QRQW, machine.CRQW, machine.CRCW,
		machine.SIMDQRQW, machine.ScanSIMDQRQW, machine.FetchAdd, machine.ScanQRQW}
	checked := 0
	for _, model := range models {
		var leased []*core.Session
		for {
			news := pool.Stats().News
			s := pool.Acquire(model, 1, 1)
			leased = append(leased, s)
			if pool.Stats().News > news {
				s.Close() // a fresh construction: nothing to check, free it now
				break
			}
			checked++
			m := s.Machine()
			for a := range m.MemWords() {
				if v := m.Word(a); v != 0 {
					t.Fatalf("reused %v session of %d words reads %d at %d", model, m.MemWords(), v, a)
				}
			}
		}
		for _, s := range leased {
			pool.Release(s)
		}
	}
	if checked == 0 {
		t.Fatal("no idle sessions were checked")
	}
}

// TestPoolIdleBoundedByConcurrency: a pool parks at most one idle
// session per model for each cell that ran concurrently, however many
// sizes the cells requested. The builtins lease QRQW and EREW sessions,
// one of each at most per cell, so p concurrent cells leave at most 2p
// idle sessions.
func TestPoolIdleBoundedByConcurrency(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		pool := core.NewSessionPool()
		runner := &spec.Runner{Parallel: p, Pool: pool}
		for range 2 {
			for _, e := range exp.Registry() {
				if err := runner.Run(e, []int{1024}, goldenSeed).FirstErr(); err != nil {
					t.Fatalf("%s: %v", e.Name, err)
				}
			}
		}
		got := pool.Idle()
		t.Logf("Parallel %d: %d idle sessions", p, got)
		if got > 2*p {
			t.Errorf("Parallel %d: %d idle sessions, want at most %d", p, got, 2*p)
		}
		pool.Close()
	}
}
