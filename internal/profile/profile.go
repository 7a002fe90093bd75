// Package profile aggregates the engine's per-step traces into the
// contention attribution the paper's analyses are about: which phase of
// an algorithm the charged time accrues to, how per-step maximum
// contention (kappa, Definition 2.1) is distributed, and which
// shared-memory cells were hottest. It is the read side of
// machine.StepTrace — the engine records, this package explains.
//
// A Profile is a pure function of a trace: aggregation introduces no
// randomness and breaks every ranking tie deterministically (by label
// first-occurrence order for phases, by ascending address for cells), so
// profiles inherit the engine's determinism contract — bit-identical for
// a fixed (program, model, seed) whatever the host parallelism — and
// both renderers produce byte-identical output for equal profiles.
//
// The charged-time invariant: every Time-charging path of the engine
// (ParDo and Bulk steps, ScanStep, FetchAddStep) leaves a trace entry,
// so the per-phase Time column always sums to the machine's total
// Stats.Time for a trace that covers the whole run.
package profile

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"lowcontend/internal/machine"
)

// DefaultHotCells is the per-profile (and, for callers that pass it to
// the engine, per-step) hot-cell top-K used when a caller does not pick
// one. The CLI and the daemon both profile at this K, which is what
// keeps their rendered profiles byte-identical.
const DefaultHotCells = 8

// unlabeled is the phase name assigned to steps whose ParDo site carries
// no label.
const unlabeled = "(unlabeled)"

// Phase is the aggregate cost of every traced step sharing one label:
// one ParDoL call site (which typically executes many times — per round,
// per level), or a collective ("scan", "fetch&add").
type Phase struct {
	Label    string `json:"label"`
	Steps    int64  `json:"steps"`
	Time     int64  `json:"time"`      // sum of model-charged step costs
	Ops      int64  `json:"ops"`       // reads + writes + computes
	MaxKappa int64  `json:"max_kappa"` // max per-step contention in the phase
	SumKappa int64  `json:"sum_kappa"` // sum over steps of per-step max contention
}

// Bucket is one kappa-histogram bucket: the number of traced steps whose
// per-step maximum contention fell in [Lo, Hi].
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Steps int64 `json:"steps"`
}

// HotCell is one shared-memory address ranked by the contention it
// received: the highest per-step contention observed at the cell, the
// reader/writer counts and phase of the (first) step attaining it, and
// in how many steps the cell ranked among the per-step top-K.
type HotCell struct {
	Addr   int    `json:"addr"`
	Kappa  int64  `json:"kappa"`
	Reads  int64  `json:"reads,omitzero"`
	Writes int64  `json:"writes,omitzero"`
	Steps  int64  `json:"steps"`
	Label  string `json:"label"`
}

// Profile is the aggregate of one machine run's trace. Fields are
// exported (and JSON-tagged) so results can attach profiles verbatim.
type Profile struct {
	Model     string    `json:"model"`
	Steps     int64     `json:"steps"`
	Time      int64     `json:"time"`
	Ops       int64     `json:"ops"`
	MaxKappa  int64     `json:"max_kappa"`
	SumKappa  int64     `json:"sum_kappa"`
	Phases    []Phase   `json:"phases,omitempty"`    // label first-occurrence order
	Histogram []Bucket  `json:"histogram,omitempty"` // ascending kappa, no gaps
	HotCells  []HotCell `json:"hot_cells,omitempty"` // kappa desc, addr asc
}

// FromTrace aggregates a per-step trace into a Profile. topCells bounds
// the profile's hot-cell ranking (<= 0 means DefaultHotCells); the
// per-step candidates it ranks over are whatever the engine recorded
// (machine.WithHotCells / EnableProfiling).
func FromTrace(model string, trace []machine.StepTrace, topCells int) *Profile {
	if topCells <= 0 {
		topCells = DefaultHotCells
	}
	p := &Profile{Model: model}
	phaseIdx := make(map[string]int)
	cellIdx := make(map[int]int)
	var cells []HotCell
	var buckets []int64
	for _, st := range trace {
		label := st.Label
		if label == "" {
			label = unlabeled
		}
		kappa := st.Kappa()

		p.Steps++
		p.Time += st.Cost
		p.Ops += st.Ops
		p.SumKappa += kappa
		if kappa > p.MaxKappa {
			p.MaxKappa = kappa
		}

		i, ok := phaseIdx[label]
		if !ok {
			i = len(p.Phases)
			phaseIdx[label] = i
			p.Phases = append(p.Phases, Phase{Label: label})
		}
		ph := &p.Phases[i]
		ph.Steps++
		ph.Time += st.Cost
		ph.Ops += st.Ops
		ph.SumKappa += kappa
		if kappa > ph.MaxKappa {
			ph.MaxKappa = kappa
		}

		b := bucketOf(kappa)
		for len(buckets) <= b {
			buckets = append(buckets, 0)
		}
		buckets[b]++

		for _, hc := range st.HotCells {
			j, ok := cellIdx[hc.Addr]
			if !ok {
				j = len(cells)
				cellIdx[hc.Addr] = j
				cells = append(cells, HotCell{Addr: hc.Addr})
			}
			c := &cells[j]
			c.Steps++
			// Strictly-greater keeps the first step attaining the max,
			// so the recorded phase is deterministic.
			if cont := hc.Cont(); cont > c.Kappa {
				c.Kappa, c.Reads, c.Writes, c.Label = cont, hc.Reads, hc.Writes, label
			}
		}
	}
	for b, n := range buckets {
		lo, hi := bucketRange(b)
		p.Histogram = append(p.Histogram, Bucket{Lo: lo, Hi: hi, Steps: n})
	}
	sortHotCells(cells)
	if len(cells) > topCells {
		cells = cells[:topCells]
	}
	p.HotCells = cells
	return p
}

// MixedModel is the Model a merged profile reports when its inputs
// disagree on the model name.
const MixedModel = "(mixed)"

// Merge aggregates profiles into one rollup — the daemon's rolling
// contention view folds many sampled per-run profiles this way. It is
// deterministic in the input order: totals and histograms sum, phases
// merge by label in first-occurrence order across the inputs, and hot
// cells merge by address (per-cell step counts sum; the kappa/reads/
// writes/label of a cell stay those of the first input attaining its
// maximum contention, mirroring FromTrace's strictly-greater rule)
// before re-ranking. topCells bounds the merged ranking (<= 0 means
// DefaultHotCells). Nil inputs are skipped; merging nothing yields an
// empty profile with an empty model.
func Merge(ps []*Profile, topCells int) *Profile {
	if topCells <= 0 {
		topCells = DefaultHotCells
	}
	out := &Profile{}
	phaseIdx := make(map[string]int)
	cellIdx := make(map[int]int)
	var cells []HotCell
	first := true
	for _, p := range ps {
		if p == nil {
			continue
		}
		if first {
			out.Model = p.Model
			first = false
		} else if out.Model != p.Model {
			out.Model = MixedModel
		}
		out.Steps += p.Steps
		out.Time += p.Time
		out.Ops += p.Ops
		out.SumKappa += p.SumKappa
		if p.MaxKappa > out.MaxKappa {
			out.MaxKappa = p.MaxKappa
		}
		for _, ph := range p.Phases {
			i, ok := phaseIdx[ph.Label]
			if !ok {
				i = len(out.Phases)
				phaseIdx[ph.Label] = i
				out.Phases = append(out.Phases, Phase{Label: ph.Label})
			}
			o := &out.Phases[i]
			o.Steps += ph.Steps
			o.Time += ph.Time
			o.Ops += ph.Ops
			o.SumKappa += ph.SumKappa
			if ph.MaxKappa > o.MaxKappa {
				o.MaxKappa = ph.MaxKappa
			}
		}
		// Buckets are positional: bucket b covers the same kappa range
		// in every profile, so histograms sum index-wise.
		for b, bk := range p.Histogram {
			for len(out.Histogram) <= b {
				lo, hi := bucketRange(len(out.Histogram))
				out.Histogram = append(out.Histogram, Bucket{Lo: lo, Hi: hi})
			}
			out.Histogram[b].Steps += bk.Steps
		}
		for _, hc := range p.HotCells {
			j, ok := cellIdx[hc.Addr]
			if !ok {
				j = len(cells)
				cellIdx[hc.Addr] = j
				cells = append(cells, HotCell{Addr: hc.Addr})
			}
			c := &cells[j]
			c.Steps += hc.Steps
			if hc.Kappa > c.Kappa {
				c.Kappa, c.Reads, c.Writes, c.Label = hc.Kappa, hc.Reads, hc.Writes, hc.Label
			}
		}
	}
	sortHotCells(cells)
	if len(cells) > topCells {
		cells = cells[:topCells]
	}
	out.HotCells = cells
	return out
}

// bucketOf maps a per-step contention to its log2 bucket: bucket 0 holds
// kappa = 1 and bucket b > 0 holds 2^(b-1) < kappa <= 2^b.
func bucketOf(kappa int64) int {
	return bits.Len64(uint64(kappa - 1))
}

// bucketRange returns the kappa interval of a bucket.
func bucketRange(b int) (lo, hi int64) {
	if b == 0 {
		return 1, 1
	}
	return 1<<(b-1) + 1, 1 << b
}

// sortHotCells orders cells by observed contention descending, address
// ascending — a total order, so the ranking has no unstable ties.
func sortHotCells(cells []HotCell) {
	slices.SortFunc(cells, func(a, b HotCell) int {
		if a.Kappa != b.Kappa {
			return cmp.Compare(b.Kappa, a.Kappa)
		}
		return cmp.Compare(a.Addr, b.Addr)
	})
}

// histogramBarWidth is the length of a full histogram bar in Text.
const histogramBarWidth = 32

// Text renders the profile as a deterministic, human-readable report:
// the per-phase attribution table (whose time column sums to the total
// row), the kappa histogram, and the hot-cell ranking. Equal profiles
// render byte-identically, so the CLI and the daemon can serve the same
// bytes by construction.
func (p *Profile) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model=%s steps=%d time=%d ops=%d max-kappa=%d\n", p.Model, p.Steps, p.Time, p.Ops, p.MaxKappa)
	if p.Steps == 0 {
		b.WriteString("(no traced steps)\n")
		return b.String()
	}

	b.WriteString("\n")
	fmt.Fprintf(&b, "%-24s %7s %10s %7s %12s %7s %9s\n", "phase", "steps", "time", "%time", "ops", "max-k", "sum-k")
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, "%-24s %7d %10d %6.1f%% %12d %7d %9d\n",
			ph.Label, ph.Steps, ph.Time, pct(ph.Time, p.Time), ph.Ops, ph.MaxKappa, ph.SumKappa)
	}
	fmt.Fprintf(&b, "%-24s %7d %10d %6.1f%% %12d %7d %9d\n",
		"(total)", p.Steps, p.Time, 100.0, p.Ops, p.MaxKappa, p.SumKappa)

	b.WriteString("\nkappa histogram (per-step max contention)\n")
	var maxSteps int64 = 1
	for _, bk := range p.Histogram {
		if bk.Steps > maxSteps {
			maxSteps = bk.Steps
		}
	}
	for _, bk := range p.Histogram {
		label := fmt.Sprintf("k=%d", bk.Lo)
		if bk.Hi > bk.Lo {
			label = fmt.Sprintf("k=%d-%d", bk.Lo, bk.Hi)
		}
		bar := int(bk.Steps * histogramBarWidth / maxSteps)
		if bk.Steps > 0 && bar == 0 {
			bar = 1
		}
		if bar == 0 {
			fmt.Fprintf(&b, "%-12s %7d\n", label, bk.Steps)
		} else {
			fmt.Fprintf(&b, "%-12s %7d %s\n", label, bk.Steps, strings.Repeat("#", bar))
		}
	}

	if len(p.HotCells) > 0 {
		fmt.Fprintf(&b, "\nhot cells (top %d by per-step contention)\n", len(p.HotCells))
		for _, c := range p.HotCells {
			fmt.Fprintf(&b, "addr=%-8d k=%-5d (r=%d w=%d) steps=%-5d phase=%s\n",
				c.Addr, c.Kappa, c.Reads, c.Writes, c.Steps, c.Label)
		}
	}
	return b.String()
}

func pct(part, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
