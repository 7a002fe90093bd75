package machine

// ExecStats is a snapshot of the machine's host-execution telemetry:
// how steps were dispatched (gang vs serial), how the fused dispatches
// settled (member-local vs sharded), how evenly the gang's cursor
// chunks were claimed, how often the adaptive serial cutoff moved, and
// the bulk layer's descriptor traffic. All of it is wall-clock-side
// accounting — none of these counters feed the charged Stats — but at
// a single-worker configuration (no gang, no adaptation) every field
// is deterministic for a given program, which is what lets services
// embed per-run deltas in reproducible artifacts. It is the only way
// any layer reads these counters: sessions, the session pool, cell
// results, the daemon and the CLI all pass this struct along.
type ExecStats struct {
	GangDispatches     int64 `json:"gang_dispatches"`      // gang barrier crossings
	GangFusedSettles   int64 `json:"gang_fused_settles"`   // fused dispatches settled member-locally
	GangShardedSettles int64 `json:"gang_sharded_settles"` // fused dispatches routed to the sharded path
	SerialSteps        int64 `json:"serial_steps"`         // steps run on a single host goroutine
	ChunksClaimed      int64 `json:"chunks_claimed"`       // cursor chunks claimed across fused dispatches
	CursorSteals       int64 `json:"cursor_steals"`        // claims above a member's fair share
	CutoffRaises       int64 `json:"cutoff_raises"`        // adaptive serial cutoff doublings
	CutoffLowers       int64 `json:"cutoff_lowers"`        // adaptive serial cutoff halvings
	BulkDescriptors    int64 `json:"bulk_descriptors"`     // bulk descriptors recorded
	BulkExpanded       int64 `json:"bulk_expanded"`        // descriptors expanded to element granularity (incl. recording-time fallbacks)
}

// ExecStats reads the machine's execution telemetry. Safe to call from
// another goroutine while a step is running: every counter is atomic,
// so the snapshot is a consistent point-in-time read of each field
// (fields may straddle a step boundary relative to each other — the
// counters are monotone between resets, so sums only ever lag).
func (m *Machine) ExecStats() ExecStats {
	return ExecStats{
		GangDispatches:     m.gangDispatches.Load(),
		GangFusedSettles:   m.gangFused.Load(),
		GangShardedSettles: m.gangSharded.Load(),
		SerialSteps:        m.serialSteps.Load(),
		ChunksClaimed:      m.chunksClaimed.Load(),
		CursorSteals:       m.cursorSteals.Load(),
		CutoffRaises:       m.cutoffRaises.Load(),
		CutoffLowers:       m.cutoffLowers.Load(),
		BulkDescriptors:    m.bulkDescs.Load(),
		BulkExpanded:       m.bulkExpanded.Load(),
	}
}

// Add returns the fieldwise sum of two snapshots.
func (e ExecStats) Add(o ExecStats) ExecStats {
	e.GangDispatches += o.GangDispatches
	e.GangFusedSettles += o.GangFusedSettles
	e.GangShardedSettles += o.GangShardedSettles
	e.SerialSteps += o.SerialSteps
	e.ChunksClaimed += o.ChunksClaimed
	e.CursorSteals += o.CursorSteals
	e.CutoffRaises += o.CutoffRaises
	e.CutoffLowers += o.CutoffLowers
	e.BulkDescriptors += o.BulkDescriptors
	e.BulkExpanded += o.BulkExpanded
	return e
}

// Sub returns the fieldwise difference e - o: the telemetry accrued
// between snapshot o and snapshot e of the same machine.
func (e ExecStats) Sub(o ExecStats) ExecStats {
	e.GangDispatches -= o.GangDispatches
	e.GangFusedSettles -= o.GangFusedSettles
	e.GangShardedSettles -= o.GangShardedSettles
	e.SerialSteps -= o.SerialSteps
	e.ChunksClaimed -= o.ChunksClaimed
	e.CursorSteals -= o.CursorSteals
	e.CutoffRaises -= o.CutoffRaises
	e.CutoffLowers -= o.CutoffLowers
	e.BulkDescriptors -= o.BulkDescriptors
	e.BulkExpanded -= o.BulkExpanded
	return e
}
