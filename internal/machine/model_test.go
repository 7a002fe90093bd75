package machine

import "testing"

// Unit tests for each model's Definition 2.3 rules, exercising the
// Model's StepCost and Violation methods directly (no engine involved).

func TestCostModelStepCost(t *testing.T) {
	cases := []struct {
		model   Model
		m, r, w int64
		want    int64
	}{
		// EREW/CREW: cost is m; contention is a legality question, not a
		// cost one.
		{EREW, 3, 1, 1, 3},
		{CREW, 2, 9, 1, 2},
		// CRCW and Fetch&Add charge m regardless of contention.
		{CRCW, 1, 50, 70, 1},
		{CRCW, 4, 1, 1, 4},
		{FetchAdd, 2, 30, 30, 2},
		// QRQW and its SIMD/scan variants charge max(m, kappa).
		{QRQW, 1, 7, 3, 7},
		{QRQW, 9, 2, 2, 9},
		{QRQW, 1, 2, 8, 8},
		{SIMDQRQW, 1, 6, 1, 6},
		{ScanSIMDQRQW, 1, 1, 5, 5},
		{ScanQRQW, 2, 4, 3, 4},
		// CRQW: reads are free, writes queue.
		{CRQW, 1, 99, 1, 1},
		{CRQW, 1, 99, 12, 12},
		{CRQW, 20, 99, 12, 20},
		// A step with no operations costs one unit for being issued.
		{CRCW, 0, 0, 0, 1},
		{ScanQRQW, 0, 0, 0, 1},
	}
	for _, c := range cases {
		if got := c.model.StepCost(c.m, c.r, c.w); got != c.want {
			t.Errorf("%v.StepCost(m=%d, kr=%d, kw=%d) = %d, want %d",
				c.model, c.m, c.r, c.w, got, c.want)
		}
	}
}

func TestCostModelViolation(t *testing.T) {
	cases := []struct {
		model     Model
		m, r, w   int64
		want      string
		wantCount int64
	}{
		{EREW, 1, 1, 1, "", 0},
		{EREW, 1, 2, 1, "concurrent-read", 2},
		{EREW, 1, 1, 2, "concurrent-write", 2},
		// EREW reports the read violation first when both occur, matching
		// the engine's historical precedence.
		{EREW, 1, 3, 4, "concurrent-read", 3},
		{CREW, 1, 5, 1, "", 0},
		{CREW, 1, 1, 2, "concurrent-write", 2},
		{QRQW, 9, 100, 100, "", 0},
		{CRQW, 9, 100, 100, "", 0},
		{CRCW, 9, 100, 100, "", 0},
		{SIMDQRQW, 1, 100, 100, "", 0},
		{ScanSIMDQRQW, 1, 100, 100, "", 0},
		{ScanQRQW, 9, 100, 100, "", 0},
		{FetchAdd, 9, 100, 100, "", 0},
		// The SIMD one-operation rule comes first; its count is the
		// lowest violator's, which only the engine knows.
		{SIMDQRQW, 2, 1, 1, "simd-multi-op", 0},
		{ScanSIMDQRQW, 3, 5, 5, "simd-multi-op", 0},
		{EREW, 3, 1, 1, "", 0},
	}
	for _, c := range cases {
		if got, count := c.model.Violation(c.m, c.r, c.w); got != c.want || count != c.wantCount {
			t.Errorf("%v.Violation(m=%d, kr=%d, kw=%d) = %q, %d; want %q, %d",
				c.model, c.m, c.r, c.w, got, count, c.want, c.wantCount)
		}
	}
}

// TestEveryModelHasRules: under every model, a contention-free step of
// one operation per processor is legal and costs one unit.
func TestEveryModelHasRules(t *testing.T) {
	for mo := range Model(uint8(len(modelNames))) {
		if kind, _ := mo.Violation(1, 1, 1); kind != "" {
			t.Errorf("%v: contention-free step violates %q", mo, kind)
		}
		if c := mo.StepCost(1, 1, 1); c != 1 {
			t.Errorf("%v: unit step costs %d, want 1", mo, c)
		}
	}
}

func TestUnknownModelRulesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with an unknown model should panic")
		}
	}()
	New(Model(200), 8)
}
