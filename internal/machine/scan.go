package machine

import "fmt"

// ErrNoUnitScan is returned by ScanStep on models without the unit-time
// scan capability; callers should fall back to a logarithmic prefix-sums
// algorithm (see internal/prim).
var ErrNoUnitScan = fmt.Errorf("machine: model has no unit-time scan primitive")

// ScanStep performs a unit-time exclusive add scan of n cells starting
// at src into n cells starting at dst (the regions may coincide):
// dst[i] = src[0] + ... + src[i-1], the MasPar MPL scanAdd routine of
// Section 5.2. It is only available on models with HasUnitScan; its
// cost is one time unit and n operations, modelling the hardware scan
// network assumed by the scan-simd-qrqw pram.
func (m *Machine) ScanStep(src, dst, n int) error {
	if m.err != nil {
		return m.err
	}
	if !m.model.HasUnitScan() {
		return ErrNoUnitScan
	}
	if n < 0 || src < 0 || dst < 0 || src+n > len(m.mem) || dst+n > len(m.mem) {
		panic("machine: ScanStep out of range")
	}
	m.stepIndex++
	m.dirty = max(m.dirty, dst+n)
	var acc Word
	for i := 0; i < n; i++ {
		v := m.mem[src+i]
		m.mem[dst+i] = acc
		acc += v
	}
	m.stats.Steps++
	m.stats.Time++
	m.stats.Ops += int64(n)
	m.stats.PTWork += int64(n)
	m.stats.ScanSteps++
	// Every Time-charging path leaves a trace entry, or per-phase
	// profile time could not sum to Stats.Time.
	if m.tracing {
		m.record(StepTrace{
			Step: int64(m.stepIndex), Procs: n, MaxOps: 1, Cost: 1, Ops: int64(n), Label: "scan",
		})
	}
	return nil
}
