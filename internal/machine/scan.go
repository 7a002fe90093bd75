package machine

import "fmt"

// ScanKind selects the associative operation of a unit-time scan.
type ScanKind uint8

// Supported scan kinds. All scans are exclusive prefix operations over n
// consecutive cells, mirroring the MasPar MPL scan library routines used
// in Section 5.2 (scanAdd16, enumerate, globalor).
const (
	// ScanAdd computes dst[i] = sum of src[base..base+i).
	ScanAdd ScanKind = iota
	// ScanMax computes dst[i] = max of src[base..base+i), with identity
	// minInt64.
	ScanMax
	// ScanEnumerate computes dst[i] = number of nonzero cells in
	// src[base..base+i) (the MPL "enumerate" primitive).
	ScanEnumerate
)

// ErrNoUnitScan is returned by ScanStep on models without the unit-time
// scan capability; callers should fall back to a logarithmic prefix-sums
// algorithm (see internal/prim).
var ErrNoUnitScan = fmt.Errorf("machine: model has no unit-time scan primitive")

// ScanStep performs a unit-time exclusive scan of n cells starting at src
// into n cells starting at dst (the regions may coincide). It is only
// available on models with HasUnitScan; its cost is one time unit and n
// operations, modelling the hardware scan network assumed by the
// scan-simd-qrqw pram.
func (m *Machine) ScanStep(kind ScanKind, src, dst, n int) error {
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
	switch kind {
	case ScanAdd:
		var acc Word
		for i := 0; i < n; i++ {
			v := m.mem[src+i]
			m.mem[dst+i] = acc
			acc += v
		}
	case ScanMax:
		acc := Word(minInt64)
		for i := 0; i < n; i++ {
			v := m.mem[src+i]
			m.mem[dst+i] = acc
			if v > acc {
				acc = v
			}
		}
	case ScanEnumerate:
		var acc Word
		for i := 0; i < n; i++ {
			v := m.mem[src+i]
			m.mem[dst+i] = acc
			if v != 0 {
				acc++
			}
		}
	default:
		panic(fmt.Sprintf("machine: unknown scan kind %d", kind))
	}
	m.stats.Steps++
	m.stats.Time++
	m.stats.Ops += int64(n)
	m.stats.PTWork += int64(n)
	m.stats.ScanSteps++
	if m.tracing {
		m.trace = append(m.trace, StepTrace{
			Step: int64(m.stepIndex), Procs: n, MaxOps: 1, Cost: 1, Ops: int64(n), Label: "scan",
		})
	}
	return nil
}

// GlobalOr performs a unit-time global OR over n cells starting at src,
// returning whether any cell is nonzero. Only available on scan models;
// cost is one time unit and n operations.
func (m *Machine) GlobalOr(src, n int) (bool, error) {
	if m.err != nil {
		return false, m.err
	}
	if !m.model.HasUnitScan() {
		return false, ErrNoUnitScan
	}
	if n < 0 || src < 0 || src+n > len(m.mem) {
		panic("machine: GlobalOr out of range")
	}
	m.stepIndex++
	any := false
	for i := 0; i < n; i++ {
		if m.mem[src+i] != 0 {
			any = true
			break
		}
	}
	m.stats.Steps++
	m.stats.Time++
	m.stats.Ops += int64(n)
	m.stats.PTWork += int64(n)
	m.stats.ScanSteps++
	// Traced like ScanStep: every Time-charging path must leave a trace
	// entry, or per-phase profile time could not sum to Stats.Time.
	if m.tracing {
		m.trace = append(m.trace, StepTrace{
			Step: int64(m.stepIndex), Procs: n, MaxOps: 1, Cost: 1, Ops: int64(n), Label: "globalor",
		})
	}
	return any, nil
}

const minInt64 = -1 << 63
