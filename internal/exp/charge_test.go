package exp

import (
	"errors"
	"testing"

	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
)

// TestChargeMatchesEngine pins the exported Definition 2.3 rules
// (machine.Model.StepCost and Violation, as spec applies them to a
// cell's step traces) against the engine. Every Table I and Table II
// cell at n = 64 runs directly under each model, and again traced under
// the model of its HasUnitScan kind that forbids nothing, charged under
// the first model. A surviving cell's derived time must equal the
// charged time its sessions recorded (each session's Stats.Time is one
// measurement); a violating cell's derived error must name the engine's
// step and kind, and for read and write violations its count.
func TestChargeMatchesEngine(t *testing.T) {
	for m := machine.EREW; m <= machine.ScanQRQW; m++ {
		exec := machine.QRQW
		if m.HasUnitScan() {
			exec = machine.ScanQRQW
		}
		for _, name := range []string{"table1", "table2"} {
			e, _ := Find(name)
			cells := e.Cells([]int{64})
			direct := (&spec.Runner{Parallel: 2, Model: &m}).Run(e, []int{64}, 1).Cells
			tasks := make([]spec.Task, len(cells))
			for i, c := range cells {
				tasks[i] = spec.Task{Cell: c, Seed: 1, Model: &exec, Charge: []machine.Model{m}}
			}
			traced := (&spec.Runner{Parallel: 2, Profile: true, ProfileCells: -1}).RunTasks(tasks)
			for i, d := range direct {
				ch := traced[i].Charges[0]
				var want, got *machine.ViolationError
				switch {
				case errors.As(d.Err, &want):
					if !errors.As(ch.Err, &got) || got.Model != m || got.Step != want.Step || got.Kind != want.Kind ||
						(want.Kind != "simd-multi-op" && got.Count != want.Count) {
						t.Errorf("%v %s: derived %v, engine %v", m, d.Cell, ch.Err, d.Err)
					}
				case d.Err != nil:
					t.Errorf("%v %s: engine failed without a violation: %v", m, d.Cell, d.Err)
				default:
					var time int64
					for _, ms := range d.Measurements {
						time += ms.Stats.Time
					}
					if ch.Err != nil || ch.Time != time {
						t.Errorf("%v %s: derived time %d (err %v), engine Stats.Time %d", m, d.Cell, ch.Time, ch.Err, time)
					}
				}
			}
		}
	}
}
