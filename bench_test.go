// Benchmarks regenerating every table and figure of the paper's
// evaluation (driven by the internal/exp experiment registry), plus
// ablations of the design choices called out in DESIGN.md and
// wall-clock (native goroutine) counterparts of the headline
// experiment. Reported "time-units/op" metrics are simulator-charged
// PRAM time; ns/op is host wall-clock.
package lowcontend

import (
	"fmt"
	"testing"

	"lowcontend/internal/compact"
	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/native"
	"lowcontend/internal/perm"
	"lowcontend/internal/prim"
	"lowcontend/internal/sortalg"
	"lowcontend/internal/xrand"
)

func report(b *testing.B, st machine.Stats) {
	b.ReportMetric(float64(st.Time), "time-units/op")
	b.ReportMetric(float64(st.Ops), "pram-ops/op")
	b.ReportMetric(float64(st.MaxContention), "max-contention")
}

// --- Experiment registry: every table/figure cell ---------------------
//
// BenchmarkExperiments regenerates each registered artifact cell by
// cell through the spec runner, reporting each cell's charged PRAM cost
// alongside its wall-clock. The sub-benchmark tree mirrors the registry
// (experiment/cell), so new registry entries are benchmarked with no
// code change here.

func BenchmarkExperiments(b *testing.B) {
	pool := core.NewSessionPool()
	defer pool.Close()
	for _, e := range exp.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			cells := e.Cells(e.DefaultSizes)
			for ci, cell := range cells {
				b.Run(cell.Name, func(b *testing.B) {
					var res spec.Result
					for i := 0; i < b.N; i++ {
						one := spec.Experiment{
							Name:  e.Name,
							Cells: func([]int) []spec.Cell { return cells[ci : ci+1] },
						}
						res = (&spec.Runner{Parallel: 1, Pool: pool}).Run(one, nil, uint64(i)+1)
						if err := res.FirstErr(); err != nil {
							b.Fatal(err)
						}
					}
					var st machine.Stats
					for _, m := range res.Measurements() {
						st = st.Add(m.Stats)
					}
					report(b, st)
				})
			}
		})
	}
}

// BenchmarkRegenerateAll measures wall-clock artifact regeneration of
// the full registry at the paper's sizes, at increasing runner
// parallelism. Charged stats are bit-identical across the variants (the
// determinism contract); only host wall-clock may differ.
func BenchmarkRegenerateAll(b *testing.B) {
	for _, par := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			pool := core.NewSessionPool()
			if par > 1 {
				pool.Workers = 1
			}
			defer pool.Close()
			r := &spec.Runner{Parallel: par, Pool: pool}
			for i := 0; i < b.N; i++ {
				for _, e := range exp.Registry() {
					if err := r.Run(e, e.DefaultSizes, 1).FirstErr(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- Figure 1: cyclic vs general permutation generation --------------

func BenchmarkFig1_CyclicFast(b *testing.B) {
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.QRQW, 1<<20, machine.WithSeed(uint64(i)+1))
		if _, err := perm.CyclicFast(m, 1<<12); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

func BenchmarkFig1_CyclicEfficient(b *testing.B) {
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(uint64(i)+1))
		if _, err := perm.CyclicEfficient(m, 1<<12); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

// --- Ablations --------------------------------------------------------

func benchPerm(b *testing.B, n int, f func(*machine.Machine, int) (int, error)) {
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.QRQW, 1<<18, machine.WithSeed(uint64(i)+1))
		if _, err := f(m, n); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

// Ablation (a), Section 5.1.2: the cyclic-permutation array-size
// trade-off O(lg n/f + f) — compare the sqrt(lg n)-sized staging against
// a minimal staging array (CyclicEfficient's O(n)).
func BenchmarkAblation_CyclicStagingWide(b *testing.B)   { BenchmarkFig1_CyclicFast(b) }
func BenchmarkAblation_CyclicStagingNarrow(b *testing.B) { BenchmarkFig1_CyclicEfficient(b) }

// Ablation (d), Section 5.2: initial subarray size in dart throwing —
// ScanDart uses a fixed 2n array vs Random's shrinking fresh subarrays.
func BenchmarkAblation_DartFreshSubarrays(b *testing.B) { benchPerm(b, 1<<12, perm.Random) }
func BenchmarkAblation_DartFixedArray(b *testing.B)     { benchPerm(b, 1<<12, perm.ScanDart) }

// Ablation: linear compaction (QRQW, sqrt(lg n)) vs EREW pack (lg n).
func BenchmarkAblation_LinearCompactQRQW(b *testing.B) {
	n := 1 << 14
	k := n / 64
	s := xrand.NewStream(8)
	pm := s.Perm(n)
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.QRQW, 1<<21, machine.WithSeed(uint64(i)+1))
		flags := m.Alloc(n)
		vals := m.Alloc(n)
		for j := 0; j < k; j++ {
			m.SetWord(flags+pm[j], 1)
			m.SetWord(vals+pm[j], machine.Word(j))
		}
		if _, err := compact.LinearCompact(m, flags, vals, n, k); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

func BenchmarkAblation_LinearCompactEREW(b *testing.B) {
	n := 1 << 14
	k := n / 64
	s := xrand.NewStream(8)
	pm := s.Perm(n)
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.EREW, 1<<21, machine.WithSeed(uint64(i)+1))
		flags := m.Alloc(n)
		vals := m.Alloc(n)
		for j := 0; j < k; j++ {
			m.SetWord(flags+pm[j], 1)
			m.SetWord(vals+pm[j], machine.Word(j))
		}
		if _, err := compact.EREWCompact(m, flags, vals, n, k); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

// --- General sorting (Section 7.2) -----------------------------------

func BenchmarkSort_SampleSortQRQW(b *testing.B) {
	n := 1 << 12
	s := xrand.NewStream(10)
	vals := make([]machine.Word, n)
	for i := range vals {
		vals[i] = machine.Word(s.Int63())
	}
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.QRQW, 1<<20, machine.WithSeed(uint64(i)+1))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := sortalg.SampleSortQRQW(m, keys, n); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

func BenchmarkSort_BitonicEREW(b *testing.B) {
	n := 1 << 12
	s := xrand.NewStream(10)
	vals := make([]machine.Word, n)
	for i := range vals {
		vals[i] = machine.Word(s.Int63())
	}
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.EREW, 1<<19, machine.WithSeed(uint64(i)+1))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := prim.BitonicSortPadded(m, keys, -1, n); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

func BenchmarkSort_IntegerCRQW(b *testing.B) {
	n := 1 << 12
	s := xrand.NewStream(11)
	vals := make([]machine.Word, n)
	for i := range vals {
		vals[i] = machine.Word(s.Intn(16 * n))
	}
	var st machine.Stats
	for i := 0; i < b.N; i++ {
		m := machine.New(machine.CRQW, 1<<20, machine.WithSeed(uint64(i)+1))
		keys := m.Alloc(n)
		m.Store(keys, vals)
		if err := sortalg.IntegerSortCRQW(m, keys, n, machine.Word(16*n)); err != nil {
			b.Fatal(err)
		}
		st = m.Stats()
	}
	report(b, st)
}

// --- Tracing/profiling overhead ---------------------------------------

// BenchmarkTraceOverhead quantifies what the profiling layer costs at
// each level — untraced (the production default, which must stay the
// zero-overhead baseline), traced, and traced with hot-cell
// attribution — on a fixed dart-throwing workload whose charged stats
// are identical across the variants.
func BenchmarkTraceOverhead(b *testing.B) {
	const n = 1 << 12
	variants := []struct {
		name string
		opts []machine.Option
	}{
		{"untraced", nil},
		{"traced", []machine.Option{machine.WithTrace()}},
		{"hotcells", []machine.Option{machine.WithHotCells(8)}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var st machine.Stats
			for i := 0; i < b.N; i++ {
				m := machine.New(machine.QRQW, 1<<18, append([]machine.Option{machine.WithSeed(uint64(i) + 1)}, v.opts...)...)
				if _, err := perm.Random(m, n); err != nil {
					b.Fatal(err)
				}
				st = m.Stats()
				m.Free()
			}
			report(b, st)
		})
	}
}

// --- Native wall-clock counterparts ([BGMZ95] shape) ------------------

func BenchmarkNative_DartPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := native.DartPermutation(1<<16, uint64(i)+1, 0)
		if len(p) != 1<<16 {
			b.Fatal("bad length")
		}
	}
}

func BenchmarkNative_SortPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := native.SortPermutation(1<<16, uint64(i)+1)
		if len(p) != 1<<16 {
			b.Fatal("bad length")
		}
	}
}

// --- Step dispatch: the resident-gang hot path ------------------------

// BenchmarkStepDispatch isolates the per-step dispatch cost of the
// resident execution gang: one machine reused across the whole run (the
// gang arms once), issuing batches of disjoint-write ParDo steps that
// take the fused single-barrier path. workers=1 is the serial-inline
// baseline; workers=4 crosses the gang barrier every step. Charged
// metrics are reset per iteration so time-units/op, pram-ops/op, and
// max-contention stay constant at every width — the determinism gate
// tools/benchcmp enforces. On the 1-CPU CI runner the workers=4 rows
// measure dispatch overhead (regressions), not speedup; multi-core
// speedups are reported in the PR.
//
// Each sub-benchmark's steps take one route, so the adaptive serial
// cutoff, which needs timings of both, never moves.
func BenchmarkStepDispatch(b *testing.B) {
	const stepsPerOp = 64
	for _, p := range []int{1 << 10, 1 << 12, 1 << 14} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("p=%d/workers=%d", p, workers), func(b *testing.B) {
				m := machine.New(machine.QRQW, p,
					machine.WithSeed(1),
					machine.WithWorkers(workers))
				defer m.Free()
				var st machine.Stats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ResetStats()
					for s := 0; s < stepsPerOp; s++ {
						if err := m.ParDoL(p, "dispatch", func(c *machine.Ctx, j int) {
							c.Write(j, machine.Word(j))
						}); err != nil {
							b.Fatal(err)
						}
					}
					st = m.Stats()
				}
				b.StopTimer()
				report(b, st)
			})
		}
	}
}
