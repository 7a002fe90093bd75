package machine

import "fmt"

// FAOp is one processor's fetch&add request: atomically return the
// current value of cell Addr and add Delta to it, with all requests to a
// cell combined in a single time unit.
type FAOp struct {
	Addr  int
	Delta Word
}

// ErrNoFetchAdd is returned by FetchAddStep on models other than
// FetchAdd.
var ErrNoFetchAdd = fmt.Errorf("machine: model has no combining fetch&add")

// FetchAddStep executes one synchronous fetch&add step: ops[i] is issued
// by processor i, and the returned slice holds, for each op, the value of
// its cell before the deltas of lower-indexed processors targeting the
// same cell were applied (the serialization order is by processor index,
// which is one valid linearization of the combining network). The step
// costs one time unit regardless of contention, modelling the
// fetch&add pram of Section 7.3 [GGK+83, Vis83].
func (m *Machine) FetchAddStep(ops []FAOp) ([]Word, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.model != FetchAdd {
		return nil, ErrNoFetchAdd
	}
	m.stepIndex++
	out := make([]Word, len(ops))
	for i, op := range ops {
		m.checkAddr(op.Addr)
		out[i] = m.mem[op.Addr]
		m.mem[op.Addr] += op.Delta
		m.dirty = max(m.dirty, op.Addr+1)
	}
	m.stats.Steps++
	m.stats.Time++
	m.stats.Ops += int64(len(ops))
	m.stats.PTWork += int64(len(ops))
	m.stats.FetchAddSteps++
	if m.tracing {
		m.trace = append(m.trace, StepTrace{
			Step: int64(m.stepIndex), Procs: len(ops), MaxOps: 1, Cost: 1, Ops: int64(len(ops)), Label: "fetch&add",
		})
	}
	return out, nil
}
