package exp

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// runBuiltin runs a registry experiment sequentially at sizes (nil
// means its defaults) and fails the test on any cell error.
func runBuiltin(t *testing.T, name string, sizes []int, seed uint64) (spec.Experiment, spec.Result) {
	t.Helper()
	e, ok := Find(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	if sizes == nil {
		sizes = e.DefaultSizes
	}
	res := (&spec.Runner{Parallel: 1}).Run(e, sizes, seed)
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	return e, res
}

func TestTableIIOrderingMatchesPaper(t *testing.T) {
	_, res := runBuiltin(t, "table2", nil, 1)
	rows := tableIIRows(res)
	times := map[string]map[int]int64{}
	for _, r := range rows {
		if times[r.Algorithm] == nil {
			times[r.Algorithm] = map[int]int64{}
		}
		times[r.Algorithm][r.N] = r.Time
	}
	for _, n := range []int{16384, 1024} {
		q := times["dart-throwing for QRQW"][n]
		s := times["dart-throwing with scans"][n]
		e := times["sorting-based (EREW)"][n]
		if !(q < s && s < e) {
			t.Errorf("n=%d: ordering qrqw(%d) < scans(%d) < sorting(%d) violated", n, q, s, e)
		}
	}
	out := RenderTableII(rows)
	if !strings.Contains(out, "Table II") {
		t.Error("render missing title")
	}
}

func TestFig1(t *testing.T) {
	e, res := runBuiltin(t, "fig1", nil, 2)
	if s := e.Render(res); !strings.Contains(s, "single cycle: true") {
		t.Errorf("Fig1 output:\n%s", s)
	}
}

func TestLowerBoundGrows(t *testing.T) {
	e, res := runBuiltin(t, "lowerbound", nil, 3)
	if s := e.Render(res); !strings.Contains(s, "1024") {
		t.Errorf("output:\n%s", s)
	}
}

func TestTableISmall(t *testing.T) {
	_, res := runBuiltin(t, "table1", []int{1 << 10}, 4)
	rows := tableIRows(res)
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	out := RenderRows("t", rows)
	if !strings.Contains(out, "random permutation") {
		t.Error("render missing row")
	}
}

func TestCompactionScaling(t *testing.T) {
	e, res := runBuiltin(t, "compaction", nil, 5)
	if s := e.Render(res); !strings.Contains(s, "Linear compaction") {
		t.Error("missing title")
	}
}

// TestRenderTableIIGolden pins the renderer's exact output, including
// first-seen column/row ordering and zero-filled missing combinations.
func TestRenderTableIIGolden(t *testing.T) {
	rows := []TableIIRow{
		{"sorting-based (EREW)", 16384, 455},
		{"dart-throwing with scans", 16384, 307},
		{"dart-throwing for QRQW", 16384, 163},
		{"sorting-based (EREW)", 1024, 247},
		{"dart-throwing with scans", 1024, 238},
		{"dart-throwing for QRQW", 1024, 130},
	}
	want := "Table II — random permutation (simulator-charged time)\n" +
		"Algorithm                            16384          1024\n" +
		"sorting-based (EREW)                   455           247\n" +
		"dart-throwing with scans               307           238\n" +
		"dart-throwing for QRQW                 163           130\n"
	if got := RenderTableII(rows); got != want {
		t.Errorf("RenderTableII:\n%q\nwant:\n%q", got, want)
	}
	// A missing (size, algorithm) combination renders as 0, and column
	// order stays first-seen.
	sparse := []TableIIRow{
		{"a", 10, 1},
		{"b", 20, 2},
		{"a", 20, 3},
	}
	wantSparse := "Table II — random permutation (simulator-charged time)\n" +
		"Algorithm                               10            20\n" +
		"a                                        1             3\n" +
		"b                                        0             2\n"
	if got := RenderTableII(sparse); got != wantSparse {
		t.Errorf("sparse RenderTableII:\n%q\nwant:\n%q", got, wantSparse)
	}
}

// TestRenderRowsRatioGuard pins the ratio column's precision path and
// zero guard.
func TestRenderRowsRatioGuard(t *testing.T) {
	out := RenderRows("t", []Row{
		{"big", 4, 1 << 33, 3 << 33}, // would truncate through int32
		{"zero", 4, 0, 7},
	})
	if !strings.Contains(out, "3.00") {
		t.Errorf("large-value ratio wrong:\n%s", out)
	}
	if !strings.Contains(out, "7.00") {
		t.Errorf("zero-denominator guard wrong:\n%s", out)
	}
}

// TestParallelRunMatchesSequential locks in the determinism contract:
// per-cell measurements, profiles, errors, descriptor counts and
// rendered artifacts are bit-identical between a sequential run and any
// runner parallelism, shared pool or not.
func TestParallelRunMatchesSequential(t *testing.T) {
	sizes := map[string][]int{
		"table1":     {1 << 9},
		"table2":     {512, 256},
		"fig1":       nil,
		"lowerbound": {4, 16, 64},
		"compaction": {1 << 10, 1 << 11},
	}
	pool := core.NewSessionPool()
	defer pool.Close()
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			sz, ok := sizes[e.Name]
			if !ok {
				sz = e.DefaultSizes
			}
			seq := (&spec.Runner{Parallel: 1}).Run(e, sz, 11)
			if err := seq.FirstErr(); err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{4, 8} {
				got := (&spec.Runner{Parallel: par, Pool: pool}).Run(e, sz, 11)
				if !reflect.DeepEqual(stripExec(seq), stripExec(got)) {
					t.Fatalf("Parallel=%d result differs from sequential:\n%+v\nvs\n%+v", par, got, seq)
				}
				if seq.Cells != nil && e.Render(got) != e.Render(seq) {
					t.Fatalf("Parallel=%d rendered artifact differs", par)
				}
			}
		})
	}
}

// stripExec keeps only the program-determined part of each cell's
// engine counters, the two descriptor counts MarshalJSON emits. The
// rest (dispatch routes, cursor steals, cutoff moves) follows the host
// schedule at any gang width above one.
func stripExec(res spec.Result) spec.Result {
	res.Cells = slices.Clone(res.Cells)
	for i, c := range res.Cells {
		res.Cells[i].Exec = machine.ExecStats{
			BulkDescriptors: c.Exec.BulkDescriptors,
			BulkExpanded:    c.Exec.BulkExpanded,
		}
	}
	return res
}

// TestExpectedShapeChecks runs each experiment's paper-shape check at
// the paper's sizes (the sizes the Check contracts are stated for).
func TestExpectedShapeChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size experiment sweep")
	}
	pool := core.NewSessionPool()
	defer pool.Close()
	for _, e := range Registry() {
		t.Run(e.Name, func(t *testing.T) {
			res := (&spec.Runner{Parallel: 2, Pool: pool}).Run(e, e.DefaultSizes, 1)
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if err := e.Check(res); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestProfiledTable2ChargeAttribution is the acceptance criterion of
// the profiling subsystem at the registry level: profiling table2
// yields, for every cell, per-phase rows whose charged-time column sums
// to the cell's total Stats.Time, a kappa histogram covering every
// step, and hot cells — and the dart-throwing cells actually exhibit
// contention (the paper's subject), so the histogram is non-trivial.
func TestProfiledTable2ChargeAttribution(t *testing.T) {
	e, _ := Find("table2")
	res := (&spec.Runner{Parallel: 1, Profile: true}).Run(e, []int{1 << 10}, 1)
	if err := res.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if len(c.Profiles) != 1 {
			t.Fatalf("cell %q: %d profiles, want 1", c.Cell, len(c.Profiles))
		}
		p := c.Profiles[0]
		var phaseTime, histSteps int64
		for _, ph := range p.Phases {
			phaseTime += ph.Time
		}
		for _, b := range p.Histogram {
			histSteps += b.Steps
		}
		charged := c.Measurements[0].Stats.Time
		if phaseTime != charged {
			t.Errorf("cell %q: per-phase time %d != charged Stats.Time %d", c.Cell, phaseTime, charged)
		}
		if histSteps != p.Steps || p.Steps != c.Measurements[0].Stats.Steps {
			t.Errorf("cell %q: histogram covers %d steps, profile %d, charged %d",
				c.Cell, histSteps, p.Steps, c.Measurements[0].Stats.Steps)
		}
		if len(p.HotCells) == 0 {
			t.Errorf("cell %q: no hot cells", c.Cell)
		}
		if strings.HasPrefix(c.Cell, "dart-throwing") && p.MaxKappa < 2 {
			t.Errorf("cell %q: max kappa %d, want contention > 1", c.Cell, p.MaxKappa)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	if len(Registry()) != 5 {
		t.Errorf("Registry() = %d experiments, want 5", len(Registry()))
	}
	for _, name := range []string{"table1", "table2", "fig1", "lowerbound", "compaction"} {
		e, ok := Find(name)
		if !ok {
			t.Fatalf("Find(%q) failed", name)
		}
		if e.Render == nil || e.Check == nil || e.Cells == nil {
			t.Errorf("%s: incomplete experiment spec", name)
		}
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find accepted an unknown name")
	}
}
