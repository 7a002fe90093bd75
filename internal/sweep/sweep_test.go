package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/prim"
	"lowcontend/internal/profile"
)

// dartExperiment is a miniature registry-style experiment with two
// cells per size, pinning models like the real registry cells do: a
// random permutation on QRQW and a bitonic sort on EREW. Dart throwing
// writes contended cells, so EREW overrides violate and queued-vs-free
// models charge differently — the exact comparative surface sweeps
// exist to expose — while the exclusive sort survives every override,
// so an EREW point mixes a violating and a surviving cell. Two cells
// per point let a parallel sweep interleave one point's cells across
// workers.
func dartExperiment() spec.Experiment {
	return spec.Experiment{
		Name:         "dart",
		DefaultSizes: []int{64, 128},
		Cells: func(sizes []int) []spec.Cell {
			var cells []spec.Cell
			for _, n := range sizes {
				cells = append(cells, spec.Cell{
					Name: fmt.Sprintf("dart/%d", n),
					Run: func(c *spec.Ctx) error {
						s := c.Session(core.QRQW, 1<<12, c.Seed+uint64(n))
						if _, err := s.RandomPermutation(n); err != nil {
							return err
						}
						c.Record(spec.Measurement{Group: "dart", N: n, Stats: s.Stats()})
						return nil
					},
				}, spec.Cell{
					Name: fmt.Sprintf("sort/%d", n),
					Run: func(c *spec.Ctx) error {
						s := c.Session(core.EREW, 2*n, c.Seed+uint64(n))
						keys := make([]int, n)
						for i := range keys {
							keys[i] = n - i
						}
						d := s.UploadInts(keys)
						if err := prim.BitonicSortPadded(s.Machine(), d.Base(), -1, n); err != nil {
							return err
						}
						c.Record(spec.Measurement{Group: "sort", N: n, Stats: s.Stats()})
						return nil
					},
				})
			}
			return cells
		},
	}
}

func TestNormalize(t *testing.T) {
	e := dartExperiment()

	p, err := Normalize(e, Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Experiment != "dart" || !reflect.DeepEqual(p.Models, DefaultModels) ||
		!reflect.DeepEqual(p.Sizes, []int{64, 128}) || !reflect.DeepEqual(p.Seeds, []uint64{1}) {
		t.Errorf("defaults not filled: %+v", p)
	}
	if p.Points() != len(DefaultModels)*2 {
		t.Errorf("Points() = %d", p.Points())
	}

	// Model names canonicalize case-insensitively and keep order (the
	// first model is the baseline).
	p, err = Normalize(e, Plan{Models: []string{"crcw", "qrqw"}, Sizes: []int{32}, Seeds: []uint64{9}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Models, []string{"CRCW", "QRQW"}) {
		t.Errorf("models = %v", p.Models)
	}

	for name, bad := range map[string]Plan{
		"unknown model":   {Models: []string{"PRAM-9000"}},
		"duplicate model": {Models: []string{"qrqw", "QRQW"}},
		"zero size":       {Sizes: []int{0}},
		"wrong exp":       {Experiment: "other"},
	} {
		if _, err := Normalize(e, bad); err == nil {
			t.Errorf("Normalize(%s) accepted %+v", name, bad)
		}
	}

	// Size-free experiments have no size axis to sweep.
	free := spec.Experiment{Name: "free", Cells: func([]int) []spec.Cell { return nil }}
	if _, err := Normalize(free, Plan{}); err == nil ||
		!strings.Contains(err.Error(), "not size-parameterized") {
		t.Errorf("size-free experiment accepted: %v", err)
	}
}

func TestParseModels(t *testing.T) {
	got, err := ParseModels("qrqw, crcw ,erew")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"QRQW", "CRCW", "EREW"}) {
		t.Errorf("ParseModels = %v", got)
	}
	for _, bad := range []string{"", "qrqw,", "qrqw,bogus", "qrqw,qrqw"} {
		if _, err := ParseModels(bad); err == nil {
			t.Errorf("ParseModels(%q) accepted", bad)
		}
	}
}

func mustPlan(t *testing.T, e spec.Experiment, p Plan) Plan {
	t.Helper()
	np, err := Normalize(e, p)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

// TestSweepComparativeShape pins the comparative semantics: CRCW
// (free concurrent access) charges strictly less than QRQW (queued) on
// a contended workload, and an EREW override records violations rather
// than silently charging — with the surviving artifact still rendering.
func TestSweepComparativeShape(t *testing.T) {
	e := dartExperiment()
	p := mustPlan(t, e, Plan{Seeds: []uint64{7}})
	res := (&Runner{Parallel: 1}).Run(e, p)
	if len(res.Points) != p.Points() {
		t.Fatalf("points = %d, want %d", len(res.Points), p.Points())
	}
	byCoord := map[string]Point{}
	for _, pt := range res.Points {
		byCoord[fmt.Sprintf("%s/%d", pt.Model, pt.Size)] = pt
	}
	for _, n := range p.Sizes {
		q := byCoord[fmt.Sprintf("QRQW/%d", n)]
		c := byCoord[fmt.Sprintf("CRCW/%d", n)]
		ew := byCoord[fmt.Sprintf("EREW/%d", n)]
		if q.Violations+q.Errors != 0 || c.Violations+c.Errors != 0 {
			t.Errorf("n=%d: QRQW/CRCW runs failed: %+v %+v", n, q, c)
		}
		if !(c.Time < q.Time) {
			t.Errorf("n=%d: CRCW time %d, want < QRQW time %d", n, c.Time, q.Time)
		}
		if ew.Violations != 1 || ew.Time == 0 {
			t.Errorf("n=%d: EREW run want the dart cell violating and the sort cell charged: %+v", n, ew)
		}
		if q.Steps == 0 || q.Ops == 0 || len(q.Histogram) == 0 {
			t.Errorf("n=%d: QRQW point missing aggregates: %+v", n, q)
		}
		if q.MaxKappa < 2 {
			t.Errorf("n=%d: QRQW point max kappa %d, want contention", n, q.MaxKappa)
		}
	}

	text := RenderText(res)
	for _, want := range []string{
		"Sweep — dart across QRQW, CRCW, EREW",
		"baseline: QRQW",
		"ratio",
		"kappa histogram",
		"model summary",
		"cell failures",
		"concurrent-write violation at step",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, text)
		}
	}
	// The sanitized violation text never leaks the shard-dependent cell
	// address.
	if strings.Contains(text, "accessed cell") {
		t.Errorf("violation text leaks the contended address:\n%s", text)
	}
}

// TestSweepDeterministicAcrossParallelism locks the sweep determinism
// contract: results are bit-identical and rendered artifacts
// byte-identical at any parallelism, including parallelism crossed with
// multiple seeds and points whose cells interleave across workers.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	e := dartExperiment()
	p := mustPlan(t, e, Plan{Sizes: []int{64, 128}, Seeds: []uint64{7, 11}})
	ref := (&Runner{Parallel: 1}).Run(e, p)
	refText := RenderText(ref)
	for _, par := range []int{2, 8} {
		got := (&Runner{Parallel: par}).Run(e, p)
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("Parallel=%d sweep result differs from sequential", par)
		}
		if RenderText(got) != refText {
			t.Errorf("Parallel=%d rendered sweep differs from sequential", par)
		}
	}
}

// TestSweepRunsPointCellsConcurrently: a point's cells are scheduled
// like any other cells, so at Parallel 2 a one-point sweep runs its two
// cells at once. Each cell rendezvouses with its sibling on a shared
// channel; run one after the other, both time out.
func TestSweepRunsPointCellsConcurrently(t *testing.T) {
	meet := make(chan struct{})
	cell := func(name string) spec.Cell {
		return spec.Cell{Name: name, Run: func(*spec.Ctx) error {
			select {
			case meet <- struct{}{}:
			case <-meet:
			case <-time.After(5 * time.Second):
				return errors.New("sibling cell never ran concurrently")
			}
			return nil
		}}
	}
	e := spec.Experiment{
		Name:         "pair",
		DefaultSizes: []int{1},
		Cells: func([]int) []spec.Cell {
			return []spec.Cell{cell("left"), cell("right")}
		},
	}
	p := mustPlan(t, e, Plan{Models: []string{"qrqw"}})
	res := (&Runner{Parallel: 2}).Run(e, p)
	if len(res.Points) != 1 {
		t.Fatalf("points = %d, want 1", len(res.Points))
	}
	if pt := res.Points[0]; pt.Errors != 0 || len(pt.Cells) != 2 {
		t.Errorf("point cells did not run concurrently: %+v", pt)
	}
}

// TestSweepPointObserver: the observer fires exactly once per grid
// point, with the fully reduced Point the Result holds and a positive
// wall time, whether or not points' cells interleave.
func TestSweepPointObserver(t *testing.T) {
	e := dartExperiment()
	p := mustPlan(t, e, Plan{Sizes: []int{64, 128}, Seeds: []uint64{7, 11}})
	for _, par := range []int{1, 4} {
		var mu sync.Mutex
		seen := map[string][]Point{}
		r := &Runner{Parallel: par, PointObserver: func(pt Point, wall time.Duration) {
			if wall <= 0 {
				t.Errorf("Parallel=%d: point %s/%d/%d wall %v, want > 0", par, pt.Model, pt.Size, pt.Seed, wall)
			}
			mu.Lock()
			defer mu.Unlock()
			k := fmt.Sprintf("%s/%d/%d", pt.Model, pt.Size, pt.Seed)
			seen[k] = append(seen[k], pt)
		}}
		res := r.Run(e, p)
		if len(seen) != len(res.Points) {
			t.Errorf("Parallel=%d: observed %d points, want %d", par, len(seen), len(res.Points))
		}
		for _, want := range res.Points {
			got := seen[fmt.Sprintf("%s/%d/%d", want.Model, want.Size, want.Seed)]
			if len(got) != 1 {
				t.Errorf("Parallel=%d: point %s/%d/%d observed %d times, want once",
					par, want.Model, want.Size, want.Seed, len(got))
				continue
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("Parallel=%d: observed point\n%+v\nwant\n%+v", par, got[0], want)
			}
		}
	}
}

// TestSweepPooledReuseAcrossModels: repeated sweeps over one shared
// pool reuse sessions (across grid points of every model) without any
// stat leakage — run three times, bit-identical every time.
func TestSweepPooledReuseAcrossModels(t *testing.T) {
	e := dartExperiment()
	p := mustPlan(t, e, Plan{Sizes: []int{64}, Seeds: []uint64{3}})
	pool := core.NewSessionPool()
	defer pool.Close()
	r := &Runner{Parallel: 2, Pool: pool}
	ref := r.Run(e, p)
	for range 2 {
		if got := r.Run(e, p); !reflect.DeepEqual(ref, got) {
			t.Fatal("pooled-session reuse changed a sweep result")
		}
	}
	if st := pool.Stats(); st.Reuses == 0 {
		t.Error("shared pool never reused a session across sweep runs")
	}
	// A model's sessions only ever serve that model: the pool parks idle
	// sessions per model, so the three models' machines never alias.
	if got := pool.Idle(); got < 2 {
		t.Errorf("pool idle = %d, want one parked session per swept model", got)
	}
}

// TestSweepCellHook: the hook fires balanced start/stop pairs for every
// cell of every grid point (the daemon's in-flight gauge contract).
func TestSweepCellHook(t *testing.T) {
	e := dartExperiment()
	p := mustPlan(t, e, Plan{Models: []string{"qrqw"}, Sizes: []int{64, 128}, Seeds: []uint64{1, 2}})
	evs := make(chan bool, 64)
	r := &Runner{Parallel: 2, CellHook: func(_ string, start bool) { evs <- start }}
	r.Run(e, p)
	close(evs)
	starts, stops := 0, 0
	for start := range evs {
		if start {
			starts++
		} else {
			stops++
		}
	}
	want := p.Points() * 2 // two cells per point at a single size
	if starts != want || stops != want {
		t.Errorf("cell hook fired %d starts / %d stops, want %d each", starts, stops, want)
	}
}

// TestMergeHistogram: positional accumulation with extension.
func TestMergeHistogram(t *testing.T) {
	a := []profile.Bucket{{Lo: 1, Hi: 1, Steps: 3}}
	b := []profile.Bucket{{Lo: 1, Hi: 1, Steps: 2}, {Lo: 2, Hi: 2, Steps: 5}}
	got := mergeHistogram(a, b)
	want := []profile.Bucket{{Lo: 1, Hi: 1, Steps: 5}, {Lo: 2, Hi: 2, Steps: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("mergeHistogram = %+v, want %+v", got, want)
	}
}
