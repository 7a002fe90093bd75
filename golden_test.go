package lowcontend

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
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
