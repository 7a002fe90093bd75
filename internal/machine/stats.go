package machine

import "fmt"

// Stats accumulates the model-charged cost of every step executed by a
// Machine.
//
// Stats are deterministic for a fixed (program, model, seed): host
// scheduling and the choice between scalar and descriptor settlement
// never change them. Part of that guarantee is the machine's write
// arbitration invariant — when several processors write one cell in a
// step, the highest processor index wins — which both settlement paths
// preserve.
type Stats struct {
	// Steps is the number of synchronous PRAM steps executed.
	Steps int64 `json:"steps,omitzero"`
	// Time is the sum of per-step costs under the machine's model
	// (Definition 2.3). This is the quantity the paper calls "time" in
	// the work-time presentation.
	Time int64 `json:"time,omitzero"`
	// Ops counts every shared-memory read, shared-memory write, and
	// charged local compute operation. Linear-work claims in the paper
	// correspond to Ops = O(n).
	Ops int64 `json:"ops,omitzero"`
	// PTWork is the processor-time product: the sum over steps of
	// (processors in the step) * (step cost). This is "work" in the
	// sense of Definition 2.3 when a fixed processor count is used.
	PTWork int64 `json:"pt_work,omitzero"`
	// ReadOps, WriteOps and ComputeOps break down Ops.
	ReadOps    int64 `json:"read_ops,omitzero"`
	WriteOps   int64 `json:"write_ops,omitzero"`
	ComputeOps int64 `json:"compute_ops,omitzero"`
	// MaxContention is the maximum per-cell contention observed in any
	// single step.
	MaxContention int64 `json:"max_contention,omitzero"`
	// SumContention is the sum over steps of the step's maximum
	// contention; on a QRQW machine Time >= SumContention.
	SumContention int64 `json:"sum_contention,omitzero"`
	// MaxProcs is the largest processor count used in a single step.
	MaxProcs int64 `json:"max_procs,omitzero"`
	// ScanSteps counts unit-time scan primitives (scan models only).
	ScanSteps int64 `json:"scan_steps,omitzero"`
}

// Add returns the component-wise accumulation of s and t (max fields take
// the maximum).
func (s Stats) Add(t Stats) Stats {
	s.Steps += t.Steps
	s.Time += t.Time
	s.Ops += t.Ops
	s.PTWork += t.PTWork
	s.ReadOps += t.ReadOps
	s.WriteOps += t.WriteOps
	s.ComputeOps += t.ComputeOps
	if t.MaxContention > s.MaxContention {
		s.MaxContention = t.MaxContention
	}
	s.SumContention += t.SumContention
	if t.MaxProcs > s.MaxProcs {
		s.MaxProcs = t.MaxProcs
	}
	s.ScanSteps += t.ScanSteps
	return s
}

// Sub returns s - t for the additive fields; max fields are taken from s.
// It is used to measure the cost of a phase: capture Stats before and
// after and subtract.
func (s Stats) Sub(t Stats) Stats {
	s.Steps -= t.Steps
	s.Time -= t.Time
	s.Ops -= t.Ops
	s.PTWork -= t.PTWork
	s.ReadOps -= t.ReadOps
	s.WriteOps -= t.WriteOps
	s.ComputeOps -= t.ComputeOps
	s.SumContention -= t.SumContention
	s.ScanSteps -= t.ScanSteps
	return s
}

// String renders the headline numbers.
func (s Stats) String() string {
	return fmt.Sprintf("steps=%d time=%d ops=%d ptwork=%d maxcont=%d",
		s.Steps, s.Time, s.Ops, s.PTWork, s.MaxContention)
}

// StepTrace records the accounting of one executed step (tracing must be
// enabled with WithTrace or at runtime via EnableProfiling). Like Stats,
// a trace is reproducible across hosts and settlement paths: contended
// cells always retain the value written by the highest-indexed
// processor, so the post-step memory a trace describes is unique, and
// hot-cell rankings break every tie by address.
type StepTrace struct {
	Step      int64 // 1-based step index
	Procs     int   // processors participating
	MaxOps    int64 // m: max over processors of max(r_i, c_i, w_i)
	ReadCont  int64 // kappa_read
	WriteCont int64 // kappa_write
	Cost      int64 // model-charged cost of the step
	Ops       int64 // total charged operations (reads + writes + computes)
	Label     string
	// Tick is the step's place in the execution order of every machine
	// sharing the step clock it was recorded under (SetStepClock), or 0
	// when the machine had none.
	Tick int64
	// HotCells holds the step's most-contended cells — the top K by
	// max(readers, writers), ties broken by ascending address — when
	// hot-cell attribution is enabled (WithHotCells / EnableProfiling).
	// Entries are immutable once recorded.
	HotCells []HotCell
}

// Kappa returns the step's maximum per-cell contention, floored at 1
// (the value the engine accumulates into Stats.SumContention).
func (t StepTrace) Kappa() int64 {
	return max(t.ReadCont, t.WriteCont, 1)
}

// HotCell is one contended shared-memory cell of a step: the number of
// distinct processors that read and wrote it (Definition 2.1 counts).
type HotCell struct {
	Addr   int   `json:"addr"`
	Reads  int64 `json:"reads,omitzero"`
	Writes int64 `json:"writes,omitzero"`
}

// Cont returns the cell's contention: the larger of its reader and
// writer counts.
func (h HotCell) Cont() int64 { return max(h.Reads, h.Writes) }

// ViolationError reports an access forbidden by the machine's model
// (e.g. a concurrent read on an EREW machine). The first violation
// sticks: all subsequent steps fail with the same error.
type ViolationError struct {
	Model Model
	Step  int64
	Kind  string // "concurrent-read", "concurrent-write", "simd-multi-op"
	Addr  int
	Count int64
}

// Error implements error.
func (e *ViolationError) Error() string {
	if e.Kind == "simd-multi-op" {
		return fmt.Sprintf("machine: %s violation at step %d: processor issued %d operations of one kind (max 1 on %s)",
			e.Kind, e.Step, e.Count, e.Model)
	}
	return fmt.Sprintf("machine: %s violation at step %d: %d processors accessed cell %d on %s",
		e.Kind, e.Step, e.Count, e.Addr, e.Model)
}
