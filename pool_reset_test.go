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
// run over one shared pool — concurrently, with gang-width steps that
// settle both member-locally and sharded — each idle session the pool
// would hand out next reads zero at every word of its capacity. Reset
// clears only below the mark, so a write path that failed to raise it
// would leave a nonzero word here.
func TestPooledSessionsReleaseZeroed(t *testing.T) {
	pool := &core.SessionPool{Workers: 2}
	defer pool.Close()
	runner := &spec.Runner{Parallel: 4, Pool: pool}

	// Builtins run at 2048, the smallest size whose steps reach the
	// machine's default serial cutoff, so the gang engages; definitions
	// run on their own grid.
	const gangSize = 2048
	type job struct {
		e     spec.Experiment
		sizes []int
	}
	var jobs []job
	for _, e := range exp.Registry() {
		jobs = append(jobs, job{e, []int{gangSize}})
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
	if _, ex := pool.StatsLive(); ex.GangFusedSettles == 0 || ex.GangShardedSettles == 0 {
		t.Fatalf("gang settlement paths not both exercised: fused=%d sharded=%d",
			ex.GangFusedSettles, ex.GangShardedSettles)
	}

	// Drain every idle session of every shape the registry and the
	// dynamic compiler acquire: Acquire keeps handing back idle ones
	// until the pool has to construct a fresh session.
	models := []machine.Model{machine.EREW, machine.CREW, machine.QRQW, machine.CRQW, machine.CRCW,
		machine.SIMDQRQW, machine.ScanSIMDQRQW, machine.FetchAdd, machine.ScanQRQW}
	shapes := []int{1 << 14, 1 << 18, 1 << 20, 1 << 21}
	checked := 0
	for _, model := range models {
		for _, words := range shapes {
			var leased []*core.Session
			for {
				news := pool.Stats().News
				s := pool.Acquire(model, words, 1)
				leased = append(leased, s)
				if pool.Stats().News > news {
					s.Close() // a fresh construction: nothing to check, free it now
					break
				}
				checked++
				m := s.Machine()
				for a := range m.MemWords() {
					if v := m.Word(a); v != 0 {
						t.Fatalf("reused %v session of %d words reads %d at %d", model, words, v, a)
					}
				}
			}
			for _, s := range leased {
				pool.Release(s)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no idle sessions were checked")
	}
}
