package machine

// ExecStats is a snapshot of the machine's host-execution telemetry:
// the steps it settled and the bulk layer's descriptor traffic. None of
// these counters feed the charged Stats, but every step runs on the
// goroutine that issues it, so each field is determined by the program
// alone — which is what lets services embed per-run deltas in
// reproducible artifacts. It is the only way any layer reads these
// counters: sessions, the session pool, cell results, the daemon and
// the CLI all pass this struct along.
//
// The seven gang, chunk, cursor and cutoff fields described a
// step-execution gang the engine no longer has, and always read 0. They
// stay because the benchmark module, the /metrics keys and the
// Prometheus names serialize them.
type ExecStats struct {
	GangDispatches     int64 `json:"gang_dispatches"`      // always 0
	GangFusedSettles   int64 `json:"gang_fused_settles"`   // always 0
	GangShardedSettles int64 `json:"gang_sharded_settles"` // always 0
	SerialSteps        int64 `json:"serial_steps"`         // steps settled
	ChunksClaimed      int64 `json:"chunks_claimed"`       // always 0
	CursorSteals       int64 `json:"cursor_steals"`        // always 0
	CutoffRaises       int64 `json:"cutoff_raises"`        // always 0
	CutoffLowers       int64 `json:"cutoff_lowers"`        // always 0
	BulkDescriptors    int64 `json:"bulk_descriptors"`     // Bulk descriptors committed
	BulkExpanded       int64 `json:"bulk_expanded"`        // cell descriptors settled by element expansion
}

// ExecStats reads the machine's execution telemetry. Safe to call from
// another goroutine while a step is running: every counter is atomic,
// so the snapshot is a consistent point-in-time read of each field
// (fields may straddle a step boundary relative to each other — the
// counters are monotone between resets, so sums only ever lag).
func (m *Machine) ExecStats() ExecStats {
	return ExecStats{
		SerialSteps:     m.serialSteps.Load(),
		BulkDescriptors: m.bulkDescs.Load(),
		BulkExpanded:    m.bulkExpanded.Load(),
	}
}

// Add returns the fieldwise sum of two snapshots.
func (e ExecStats) Add(o ExecStats) ExecStats {
	e.SerialSteps += o.SerialSteps
	e.BulkDescriptors += o.BulkDescriptors
	e.BulkExpanded += o.BulkExpanded
	return e
}

// Sub returns the fieldwise difference e - o: the telemetry accrued
// between snapshot o and snapshot e of the same machine.
func (e ExecStats) Sub(o ExecStats) ExecStats {
	e.SerialSteps -= o.SerialSteps
	e.BulkDescriptors -= o.BulkDescriptors
	e.BulkExpanded -= o.BulkExpanded
	return e
}
