package lowcontend

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/sweep"
)

// The golden-artifact gate: every registry experiment (and one
// representative sweep) has its rendered artifact pinned byte-for-byte
// under testdata/golden, at the exact bytes the CLI prints for
// `lowcontend -sizes 1024 -seed 7 run <exp>` (Render plus fmt.Println's
// trailing newline). Each artifact is rendered at parallelism 1 and 8
// and must agree — the determinism contract — before being compared to
// the committed golden file, so CI needs no ad-hoc shell diffs.
//
// After an intentional artifact change, regenerate with:
//
//	go test -run TestGolden -update .

var update = flag.Bool("update", false, "rewrite the golden artifacts in testdata/golden")

const (
	goldenSize = 1024
	goldenSeed = 7
)

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden artifact (run `go test -run TestGolden -update .`): %v", err)
	}
	if got != string(want) {
		t.Errorf("artifact differs from %s (intentional? regenerate with -update):\n--- got ---\n%s\n--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenArtifacts pins each registry experiment's artifact.
func TestGoldenArtifacts(t *testing.T) {
	for _, e := range exp.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			render := func(parallel int) string {
				res := (&spec.Runner{Parallel: parallel}).Run(e, []int{goldenSize}, goldenSeed)
				if err := res.FirstErr(); err != nil {
					t.Fatal(err)
				}
				return e.Render(res) + "\n"
			}
			seq, par := render(1), render(8)
			if seq != par {
				t.Fatalf("artifact not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", seq, par)
			}
			checkGolden(t, fmt.Sprintf("%s-s%d-seed%d.txt", e.Name, goldenSize, goldenSeed), seq)
		})
	}
}

// TestGoldenSweep pins the representative cross-model sweep — the
// acceptance plan `lowcontend sweep table2 -models qrqw,crcw,erew
// -sizes 1024,4096 -seed 7` — including its EREW violation marks.
func TestGoldenSweep(t *testing.T) {
	t.Parallel()
	e, ok := exp.Find("table2")
	if !ok {
		t.Fatal("table2 missing from the registry")
	}
	plan, err := sweep.Normalize(e, sweep.Plan{
		Models: []string{"qrqw", "crcw", "erew"},
		Sizes:  []int{1024, 4096},
		Seeds:  []uint64{goldenSeed},
	})
	if err != nil {
		t.Fatal(err)
	}
	render := func(parallel int) string {
		return sweep.RenderText((&sweep.Runner{Parallel: parallel}).Run(e, plan)) + "\n"
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("sweep artifact not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", seq, par)
	}
	checkGolden(t, fmt.Sprintf("sweep-table2-s1024x4096-seed%d.txt", goldenSeed), seq)
}

// TestGoldenDynamic pins the dynamic definition's artifact at the
// bytes `lowcontend -seed 7 define testdata/definitions/table1-dynamic.json`
// prints. Its phases call the same algorithm legs the builtin cells do,
// so a change to a shared leg that moved both the CLI and the daemon
// fails here, where their end-to-end diff would not see it.
func TestGoldenDynamic(t *testing.T) {
	t.Parallel()
	e := table1Dynamic(t)
	render := func(parallel int) string {
		res := (&spec.Runner{Parallel: parallel}).Run(e, e.DefaultSizes, goldenSeed)
		if err := res.FirstErr(); err != nil {
			t.Fatal(err)
		}
		return e.Render(res) + "\n"
	}
	seq, par := render(1), render(8)
	if seq != par {
		t.Fatalf("dynamic artifact not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 8 ---\n%s", seq, par)
	}
	checkGolden(t, fmt.Sprintf("%s-seed%d.txt", e.Name, goldenSeed), seq)
}

// table1Dynamic compiles testdata/definitions/table1-dynamic.json.
func table1Dynamic(t *testing.T) spec.Experiment {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "definitions", "table1-dynamic.json"))
	if err != nil {
		t.Fatal(err)
	}
	return compileDefinition(t, raw)
}

func compileDefinition(t *testing.T, raw []byte) spec.Experiment {
	t.Helper()
	def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
	if derr != nil {
		t.Fatal(derr)
	}
	return dynamic.Compile(def)
}

// TestGoldenChargedStats pins the charged stats of every measurement of
// every builtin at its default sizes and seed 1 — the stats objects of
// `lowcontend -json -results-only -seed 1 all` — one line per
// measurement, keyed by experiment, cell, group, series and n. The
// artifact goldens stop at n = 1024; this one reaches n = 65536, where
// bulk steps span thousands of words, so an engine change that moves a
// charged count at scale fails here. It is rendered at parallelism 1
// and 2, which must agree.
func TestGoldenChargedStats(t *testing.T) {
	render := func(parallel int) string {
		var sb strings.Builder
		for _, e := range exp.Registry() {
			res := (&spec.Runner{Parallel: parallel}).Run(e, e.DefaultSizes, 1)
			for _, c := range res.Cells {
				for _, m := range c.Measurements {
					if m.Stats == (machine.Stats{}) {
						continue
					}
					st, err := json.Marshal(m.Stats)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&sb, "%s | %s | %s | %s | %d | %s\n", e.Name, c.Cell, m.Group, m.Series, m.N, st)
				}
				if c.Err != nil {
					fmt.Fprintf(&sb, "%s | %s | error: %v\n", e.Name, c.Cell, c.Err)
				}
			}
		}
		return sb.String()
	}
	seq, par := render(1), render(2)
	if seq != par {
		t.Fatalf("charged stats not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 2 ---\n%s", seq, par)
	}
	checkGolden(t, "charged-stats-default-seed1.txt", seq)
}

// TestGoldenFootprint pins the memory record of every session of every
// builtin at its default sizes and seed 1: the session's model, the
// words its cell requested and the most words it had allocated at
// once. Like the charged stats the record is a function of the program,
// so a change that grows a cell's footprint, or a request that no
// longer covers it, fails here exactly rather than through a noisy RSS
// bound. It is rendered at parallelism 1 and 2, which must agree.
func TestGoldenFootprint(t *testing.T) {
	render := func(parallel int) string {
		var sb strings.Builder
		for _, e := range exp.Registry() {
			res := (&spec.Runner{Parallel: parallel}).Run(e, e.DefaultSizes, 1)
			if err := res.FirstErr(); err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Cells {
				for i, f := range c.Footprints {
					fmt.Fprintf(&sb, "%s | %s | session %d | %v | requested %d | peak %d\n",
						e.Name, c.Cell, i+1, f.Model, f.Requested, f.Peak)
				}
			}
		}
		return sb.String()
	}
	seq, par := render(1), render(2)
	if seq != par {
		t.Fatalf("footprints not deterministic across parallelism:\n--- parallel 1 ---\n%s\n--- parallel 2 ---\n%s", seq, par)
	}
	checkGolden(t, "footprint-default-seed1.txt", seq)
}
