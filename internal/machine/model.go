package machine

import (
	"fmt"
	"strings"
)

// Model identifies the memory-contention rule and cost metric charged by
// a Machine.
type Model uint8

// The contention models of the paper (Section 2.1).
const (
	// EREW forbids any concurrent access to a cell.
	EREW Model = iota
	// CREW permits concurrent reads but forbids concurrent writes.
	CREW
	// QRQW queues concurrent reads and writes: a step costs
	// max(m, kappa).
	QRQW
	// CRQW permits free concurrent reads and queues concurrent writes.
	CRQW
	// CRCW permits free concurrent reads and writes (arbitrary-winner).
	CRCW
	// SIMDQRQW is the QRQW restriction with r_i = c_i = w_i <= 1 per
	// step, modelling SIMD machines such as the MasPar MP-1.
	SIMDQRQW
	// ScanSIMDQRQW is SIMDQRQW augmented with a unit-time scan
	// primitive (Section 5.2's scan-simd-qrqw pram).
	ScanSIMDQRQW
	// FetchAdd is the fetch&add PRAM (Section 7.3). The engine has no
	// combining fetch&add collective, so it charges CRCW cost.
	FetchAdd
	// ScanQRQW is QRQW augmented with a unit-time scan primitive but
	// without the SIMD one-operation restriction; it charges the scan
	// metric to MIMD-style algorithms.
	ScanQRQW
)

var modelNames = [...]string{
	EREW:         "EREW",
	CREW:         "CREW",
	QRQW:         "QRQW",
	CRQW:         "CRQW",
	CRCW:         "CRCW",
	SIMDQRQW:     "SIMD-QRQW",
	ScanSIMDQRQW: "scan-SIMD-QRQW",
	FetchAdd:     "Fetch&Add",
	ScanQRQW:     "scan-QRQW",
}

// ParseModel resolves a conventional model name (as produced by
// Model.String, e.g. "QRQW", "scan-SIMD-QRQW") back to its Model.
// Matching is case-insensitive on the ASCII letters; it reports false
// for unknown names.
func ParseModel(name string) (Model, bool) {
	for m, n := range modelNames {
		if strings.EqualFold(n, name) {
			return Model(m), true
		}
	}
	return 0, false
}

// String returns the conventional name of the model.
func (m Model) String() string {
	if int(m) < len(modelNames) {
		return modelNames[m]
	}
	return fmt.Sprintf("Model(%d)", uint8(m))
}

// Queued reports whether the model charges queued (contention-linear)
// cost for writes.
func (m Model) Queued() bool {
	switch m {
	case QRQW, CRQW, SIMDQRQW, ScanSIMDQRQW, ScanQRQW:
		return true
	}
	return false
}

// ConcurrentReads reports whether the model permits concurrent reads
// (free or queued).
func (m Model) ConcurrentReads() bool { return m != EREW }

// ConcurrentWrites reports whether the model permits concurrent writes
// (free or queued).
func (m Model) ConcurrentWrites() bool { return m != EREW && m != CREW }

// HasUnitScan reports whether the model provides a unit-time scan
// primitive.
func (m Model) HasUnitScan() bool { return m == ScanSIMDQRQW || m == ScanQRQW }

// SIMD reports whether the model restricts each processor to at most one
// read, one compute and one write per step.
func (m Model) SIMD() bool { return m == SIMDQRQW || m == ScanSIMDQRQW }

// The rules of Definition 2.3, given one step's observed shape: ops
// (the maximum per-processor operation count), kappaR and kappaW (the
// maximum per-cell read and write contention). The engine in step.go
// measures the step and delegates both decisions here, and a step trace
// records exactly this shape, so a traced run can be charged under any
// model after the fact. Apart from these two rules, the only
// model-dependent behaviour in the engine is HasUnitScan.

// StepCost returns the model-charged cost of one step: ops, floored at
// 1 (a step with no accesses costs one unit for being issued), raised
// to the queued contention. Queued models queue writes; all of them but
// CRQW queue reads too.
func (m Model) StepCost(ops, kappaR, kappaW int64) int64 {
	ops = max(ops, 1)
	if !m.Queued() {
		return ops
	}
	if m != CRQW {
		ops = max(ops, kappaR)
	}
	return max(ops, kappaW)
}

// Violation returns the rule the model forbids a step to break
// ("simd-multi-op", "concurrent-read" or "concurrent-write") and the
// step's count for it, or "" when the step is legal. The rules apply in
// order: the SIMD one-operation-per-kind restriction first (some
// processor issued more than one operation of a kind, so ops > 1), then
// concurrent reads, then concurrent writes. A read or write violation's
// count is the kappa of its kind. The SIMD rule is per processor and
// reports the lowest violator's operations, which the shape does not
// carry, so its count here is 0 and the engine fills it in.
func (m Model) Violation(ops, kappaR, kappaW int64) (kind string, count int64) {
	switch {
	case ops > 1 && m.SIMD():
		return "simd-multi-op", 0
	case kappaR > 1 && !m.ConcurrentReads():
		return "concurrent-read", kappaR
	case kappaW > 1 && !m.ConcurrentWrites():
		return "concurrent-write", kappaW
	}
	return "", 0
}
