package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lowcontend/internal/core"
	"lowcontend/internal/machine"
)

// permExperiment builds a real experiment: one random-permutation cell
// per size, each deriving its session seed from the base seed and its
// own size only.
func permExperiment() Experiment {
	return Experiment{
		Name:         "perm",
		DefaultSizes: []int{64, 128, 256},
		Cells: func(sizes []int) []Cell {
			var cells []Cell
			for _, n := range sizes {
				cells = append(cells, Cell{
					Name: fmt.Sprintf("perm/%d", n),
					Run: func(c *Ctx) error {
						s := c.Session(core.QRQW, 1<<12, c.Seed+uint64(n))
						if _, err := s.RandomPermutation(n); err != nil {
							return err
						}
						c.Record(Measurement{Group: "perm", N: n, Stats: s.Stats()})
						return nil
					},
				})
			}
			return cells
		},
	}
}

func TestRunnerParallelMatchesSequential(t *testing.T) {
	e := permExperiment()
	seq := (&Runner{Parallel: 1}).Run(e, e.DefaultSizes, 9)
	if err := seq.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got := (&Runner{Parallel: par}).Run(e, e.DefaultSizes, 9)
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("Parallel=%d result differs from sequential:\n%+v\nvs\n%+v", par, got, seq)
		}
	}
}

func TestRunnerSharedPoolMatchesPrivate(t *testing.T) {
	e := permExperiment()
	want := (&Runner{Parallel: 1}).Run(e, e.DefaultSizes, 3)
	pool := core.NewSessionPool()
	defer pool.Close()
	r := &Runner{Parallel: 4, Pool: pool}
	for range 3 { // repeated runs reuse dirty sessions
		if got := r.Run(e, e.DefaultSizes, 3); !reflect.DeepEqual(want, got) {
			t.Fatalf("shared-pool result differs:\n%+v\nvs\n%+v", got, want)
		}
	}
	if st := pool.Stats(); st.Reuses == 0 {
		t.Error("shared pool never reused a session across runs")
	}
}

// TestRunnerRecordsFootprints: each cell result carries one footprint
// per acquired session, with the requested words and the allocation
// peak a fresh session running the same program reaches, whichever
// pooled session served it.
func TestRunnerRecordsFootprints(t *testing.T) {
	e := permExperiment()
	pool := core.NewSessionPool()
	defer pool.Close()
	r := &Runner{Parallel: 2, Pool: pool}
	for range 2 {
		res := r.Run(e, e.DefaultSizes, 3)
		for i, n := range e.DefaultSizes {
			s := core.NewSession(core.QRQW, 0, machine.WithSeed(3+uint64(n)))
			if _, err := s.RandomPermutation(n); err != nil {
				t.Fatal(err)
			}
			want := []Footprint{{Model: core.QRQW, Requested: 1 << 12, Peak: s.Machine().PeakAllocated()}}
			if got := res.Cells[i].Footprints; !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d: footprints %+v, want %+v", n, got, want)
			}
		}
	}
}

func TestRunnerPerCellErrorAttribution(t *testing.T) {
	boom := errors.New("boom")
	e := Experiment{
		Name: "mixed",
		Cells: func([]int) []Cell {
			return []Cell{
				{Name: "ok", Run: func(c *Ctx) error {
					c.Record(Measurement{Group: "ok", N: 1})
					return nil
				}},
				{Name: "fails", Run: func(*Ctx) error { return boom }},
				{Name: "panics", Run: func(*Ctx) error { panic("kaboom") }},
				{Name: "also-ok", Run: func(c *Ctx) error {
					c.Record(Measurement{Group: "also-ok", N: 2})
					return nil
				}},
			}
		},
	}
	res := (&Runner{Parallel: 4}).Run(e, nil, 1)
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(res.Cells))
	}
	// Sibling cells complete despite the failures, and results stay in
	// declaration order.
	for i, want := range []string{"ok", "fails", "panics", "also-ok"} {
		if res.Cells[i].Cell != want || res.Cells[i].Index != i {
			t.Errorf("cell %d = %q (index %d), want %q", i, res.Cells[i].Cell, res.Cells[i].Index, want)
		}
	}
	if !errors.Is(res.Cells[1].Err, boom) {
		t.Errorf("cell 1 error = %v, want %v", res.Cells[1].Err, boom)
	}
	if res.Cells[2].Err == nil || !strings.Contains(res.Cells[2].Err.Error(), "kaboom") {
		t.Errorf("cell 2 error = %v, want captured panic", res.Cells[2].Err)
	}
	if res.Cells[0].Err != nil || res.Cells[3].Err != nil {
		t.Error("healthy cells must not inherit sibling errors")
	}
	if err := res.FirstErr(); err == nil || !strings.Contains(err.Error(), "mixed/fails") {
		t.Errorf("FirstErr = %v, want mixed/fails attribution", err)
	}
	if got := len(res.Measurements()); got != 2 {
		t.Errorf("Measurements() = %d entries, want 2", got)
	}
}

// TestProfiledRunnerAttachesProfiles: a profiled run carries one
// profile per acquired session, the per-phase time sums to the cell's
// charged Stats.Time, and the unprofiled parts of the result (stats,
// measurements) are identical with profiling on or off.
func TestProfiledRunnerAttachesProfiles(t *testing.T) {
	e := permExperiment()
	plain := (&Runner{Parallel: 1}).Run(e, e.DefaultSizes, 5)
	prof := (&Runner{Parallel: 1, Profile: true}).Run(e, e.DefaultSizes, 5)
	if err := prof.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i, c := range prof.Cells {
		if len(c.Profiles) != 1 {
			t.Fatalf("cell %q: %d profiles, want 1", c.Cell, len(c.Profiles))
		}
		p := c.Profiles[0]
		if p.Model != "QRQW" {
			t.Errorf("cell %q profile model = %q", c.Cell, p.Model)
		}
		var phaseTime int64
		for _, ph := range p.Phases {
			phaseTime += ph.Time
		}
		want := c.Measurements[0].Stats.Time
		if phaseTime != p.Time || p.Time != want {
			t.Errorf("cell %q: phase time %d, profile time %d, charged time %d — must all agree",
				c.Cell, phaseTime, p.Time, want)
		}
		if len(p.HotCells) == 0 {
			t.Errorf("cell %q profile has no hot cells", c.Cell)
		}
		// Profiling observes without changing the run.
		if !reflect.DeepEqual(c.Measurements, plain.Cells[i].Measurements) {
			t.Errorf("cell %q measurements differ under profiling", c.Cell)
		}
	}
}

// TestProfilesDeterministicAcrossParallelismAndReuse locks the
// determinism contract for the profiling artifact: RenderProfiles must
// be byte-identical at any runner parallelism and across pooled-session
// reuse.
func TestProfilesDeterministicAcrossParallelismAndReuse(t *testing.T) {
	e := permExperiment()
	ref := RenderProfiles((&Runner{Parallel: 1, Profile: true}).Run(e, e.DefaultSizes, 11))
	if !strings.Contains(ref, "=== perm/64 · session 1 ===") {
		t.Fatalf("profile render missing cell header:\n%s", ref)
	}
	for _, par := range []int{2, 4} {
		if got := RenderProfiles((&Runner{Parallel: par, Profile: true}).Run(e, e.DefaultSizes, 11)); got != ref {
			t.Errorf("Parallel=%d profile render differs from sequential", par)
		}
	}
	pool := core.NewSessionPool()
	defer pool.Close()
	r := &Runner{Parallel: 4, Pool: pool, Profile: true}
	for range 3 { // repeated runs reuse sessions whose traces must have been cleared
		if got := RenderProfiles(r.Run(e, e.DefaultSizes, 11)); got != ref {
			t.Fatal("pooled-session reuse changed the rendered profile")
		}
	}
	// Interleaved unprofiled runs on the same pool must stay unprofiled
	// (no traces leak from the profiled leases) and unchanged.
	plain := (&Runner{Parallel: 1, Pool: pool}).Run(e, e.DefaultSizes, 11)
	for _, c := range plain.Cells {
		if len(c.Profiles) != 0 {
			t.Errorf("unprofiled run carries %d profiles on cell %q", len(c.Profiles), c.Cell)
		}
	}
	if st := pool.Stats(); st.Reuses == 0 {
		t.Error("pool never reused a session")
	}
}

// TestRunnerModelOverride: a runner carrying a model override reruns
// the same cells under that model — sessions report the override, stats
// are charged under its cost rules, and a model whose rules the cells'
// access pattern violates fails the cell with a ViolationError instead
// of silently charging the pinned model.
func TestRunnerModelOverride(t *testing.T) {
	e := permExperiment() // cells pin core.QRQW and dart-throw (contended writes)
	base := (&Runner{Parallel: 1}).Run(e, []int{256}, 9)
	if err := base.FirstErr(); err != nil {
		t.Fatal(err)
	}

	crcw := machine.CRCW
	over := (&Runner{Parallel: 1, Model: &crcw, Profile: true}).Run(e, []int{256}, 9)
	if err := over.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if got := over.Cells[0].Profiles[0].Model; got != "CRCW" {
		t.Errorf("override run profile model = %q, want CRCW", got)
	}
	// CRCW charges m where QRQW charges max(m, kappa): the same cells
	// must get strictly cheaper when the dart throws are contended.
	bt := base.Cells[0].Measurements[0].Stats.Time
	ot := over.Cells[0].Measurements[0].Stats.Time
	if ot >= bt {
		t.Errorf("CRCW override time %d, want < QRQW time %d", ot, bt)
	}

	erew := machine.EREW
	viol := (&Runner{Parallel: 1, Model: &erew}).Run(e, []int{256}, 9)
	err := viol.Cells[0].Err
	var ve *machine.ViolationError
	if err == nil || !errors.As(err, &ve) {
		t.Fatalf("EREW override error = %v, want a ViolationError", err)
	}

	// Determinism holds under an override too.
	for _, par := range []int{2, 4} {
		got := (&Runner{Parallel: par, Model: &crcw, Profile: true}).Run(e, []int{256}, 9)
		if !reflect.DeepEqual(over, got) {
			t.Errorf("Parallel=%d override result differs from sequential", par)
		}
	}
}

// TestProfileCellsNegativeTracesWithoutHotCells: ProfileCells < 0 still
// attaches profiles (phases, histogram, charged-time invariant) but
// skips hot-cell attribution — the cheap tracing mode the sweep layer
// runs every grid point in.
func TestProfileCellsNegativeTracesWithoutHotCells(t *testing.T) {
	e := permExperiment()
	full := (&Runner{Parallel: 1, Profile: true}).Run(e, []int{128}, 5)
	slim := (&Runner{Parallel: 1, Profile: true, ProfileCells: -1}).Run(e, []int{128}, 5)
	if err := slim.FirstErr(); err != nil {
		t.Fatal(err)
	}
	fp, sp := full.Cells[0].Profiles[0], slim.Cells[0].Profiles[0]
	if len(fp.HotCells) == 0 {
		t.Fatal("full profile has no hot cells — the comparison is vacuous")
	}
	if len(sp.HotCells) != 0 {
		t.Errorf("ProfileCells=-1 profile still carries %d hot cells", len(sp.HotCells))
	}
	if sp.Time != fp.Time || sp.Steps != fp.Steps || !reflect.DeepEqual(sp.Histogram, fp.Histogram) {
		t.Errorf("slim profile aggregates differ from full:\n%+v\nvs\n%+v", sp, fp)
	}
}

func TestResultJSON(t *testing.T) {
	res := Result{
		Experiment: "e",
		Cells: []CellResult{
			{Cell: "a", Index: 0, Measurements: []Measurement{
				{Group: "g", Series: "QRQW", N: 4, Stats: machine.Stats{Time: 17}},
				{Note: "a note"}, // note-only measurements omit zero stats
			}},
			{Cell: "b", Index: 1, Err: errors.New("bad cell")},
			// Descriptor counts live only in Exec; the rest of Exec
			// stays out of the JSON.
			{Cell: "c", Index: 2, Exec: machine.ExecStats{
				GangDispatches: 5, GangFusedSettles: 4, SerialSteps: 3, CursorSteals: 1,
				BulkDescriptors: 9, BulkExpanded: 2,
			}, Footprints: []Footprint{{Model: machine.QRQW, Requested: 4096, Peak: 4000}}},
		},
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"experiment":"e"`, `"cell":"a"`, `"series":"QRQW"`, `"error":"bad cell"`, `"stats":{"time":17}`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, `"note":"a note","stats"`) || strings.Contains(s, `"stats":{},"note"`) {
		t.Errorf("note-only measurement must omit zero stats:\n%s", s)
	}
	if want := `{"cell":"c","index":2,"bulk_descriptors":9,"expanded_descriptors":2}`; !strings.Contains(s, want) {
		t.Errorf("JSON missing descriptor counts %s:\n%s", want, s)
	}
	for _, key := range []string{"gang_", "serial_steps", "cursor_steals", "bulk_expanded"} {
		if strings.Contains(s, key) {
			t.Errorf("JSON carries exec key %q:\n%s", key, s)
		}
	}
	// Footprints describe host memory, not the simulated run.
	for _, key := range []string{"footprint", "requested", "peak", "4096"} {
		if strings.Contains(strings.ToLower(s), key) {
			t.Errorf("JSON carries footprint key %q:\n%s", key, s)
		}
	}
	var round map[string]any
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("round trip: %v", err)
	}
}
