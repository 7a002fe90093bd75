package machine

import "testing"

// TestAdaptiveCutoffMoves drives the adaptive cutoff's decision sites
// directly (the timings that trigger them in production are
// host-dependent) and checks that each move lands on the expected
// cutoff and is counted.
func TestAdaptiveCutoffMoves(t *testing.T) {
	m := New(QRQW, 1024, WithWorkers(4))
	defer m.Free()

	// Gang winning: retune halves the cutoff.
	m.ad.serialNs = 100
	m.ad.parallelNs = 10
	want := max(m.effCutoff/2, minSerialCutoff)
	m.retune()
	if m.effCutoff != want {
		t.Errorf("after retune: cutoff %d, want %d", m.effCutoff, want)
	}
	if ex := m.ExecStats(); ex.CutoffLowers != 1 || ex.CutoffRaises != 0 {
		t.Errorf("after retune: lowers=%d raises=%d, want 1 0", ex.CutoffLowers, ex.CutoffRaises)
	}

	// Gang losing near the cutoff for adaptLossLimit observations:
	// observeParallel doubles it, once.
	m.Reset()
	m.ad = adaptState{serialNs: 10}
	before := m.effCutoff
	for i := 0; i < adaptLossLimit; i++ {
		if m.effCutoff != before {
			t.Fatalf("cutoff moved to %d after %d losses, want %d until %d", m.effCutoff, i, before, adaptLossLimit)
		}
		m.observeParallel(m.effCutoff, 1e6)
	}
	if want := min(2*before, maxSerialCutoff); m.effCutoff != want {
		t.Errorf("after losses: cutoff %d, want %d", m.effCutoff, want)
	}
	if ex := m.ExecStats(); ex.CutoffRaises != 1 || ex.CutoffLowers != 0 {
		t.Errorf("after losses: raises=%d lowers=%d, want 1 0 (Reset clears the counters)", ex.CutoffRaises, ex.CutoffLowers)
	}

	// A gang slower than serial never lowers the cutoff.
	m.ad = adaptState{serialNs: 10, parallelNs: 100}
	before = m.effCutoff
	m.retune()
	if m.effCutoff != before || m.ExecStats().CutoffLowers != 0 {
		t.Errorf("losing gang lowered the cutoff: %d -> %d", before, m.effCutoff)
	}
}
