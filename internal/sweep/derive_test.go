package sweep

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// allModels is every contention model, in declaration order.
var allModels = func() []string {
	var out []string
	for m := machine.EREW; m <= machine.ScanQRQW; m++ {
		out = append(out, m.String())
	}
	return out
}()

// definition compiles a dynamic definition document.
func definition(t *testing.T, path string) spec.Experiment {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
	if derr != nil {
		t.Fatalf("%s: %v", path, derr)
	}
	return dynamic.Compile(def)
}

// TestDerivedSweepMatchesSingleModelSweeps is the proof that charging
// a model from another model's step traces is exact: a sweep over all
// nine models, which runs each cell once per execution class, yields
// the same points as nine single-model sweeps, each of which runs every
// cell under its own model. The inputs are every size-parameterized
// registry experiment, Table I as a pinned dynamic definition (its
// QRQW- and EREW-pinned sessions alternate), and a definition whose
// later-created session runs the first step EREW forbids, which only
// an execution-order merge of the cell's traces charges correctly.
func TestDerivedSweepMatchesSingleModelSweeps(t *testing.T) {
	type input struct {
		e     spec.Experiment
		sizes []int
	}
	var inputs []input
	for _, e := range exp.Registry() {
		if e.DefaultSizes == nil {
			continue
		}
		sizes := []int{64, 1000}
		if e.Name == "lowerbound" {
			sizes = e.DefaultSizes // its size axis is the load bound L
		}
		inputs = append(inputs, input{e, sizes})
	}
	inputs = append(inputs,
		input{definition(t, filepath.Join("..", "..", "testdata", "definitions", "table1-dynamic.json")), []int{1024}},
		input{definition(t, filepath.Join("testdata", "interleaved-sessions.json")), []int{256}})
	seeds := []uint64{1, 2, 3}
	r := &Runner{Parallel: 2}
	for _, in := range inputs {
		multi := r.Run(in.e, mustPlan(t, in.e, Plan{Models: allModels, Sizes: in.sizes, Seeds: seeds}))
		var spliced []Point
		for _, m := range allModels {
			single := r.Run(in.e, mustPlan(t, in.e, Plan{Models: []string{m}, Sizes: in.sizes, Seeds: seeds}))
			spliced = append(spliced, single.Points...)
		}
		got, err := json.Marshal(multi.Points)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(spliced)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: derived points differ from single-model sweeps:\n%s", in.e.Name, firstPointDiff(multi.Points, spliced))
		}
	}
}

// firstPointDiff describes the first grid point at which two point
// lists differ.
func firstPointDiff(got, want []Point) string {
	for i := range min(len(got), len(want)) {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			return fmt.Sprintf("point %d\n got: %s\nwant: %s", i, g, w)
		}
	}
	return fmt.Sprintf("%d points, want %d", len(got), len(want))
}
