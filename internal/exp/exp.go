// Package exp regenerates the paper's evaluation artifacts (Table I,
// Table II, Figure 1, the Theorem 3.2 lower-bound demonstration, and
// the compaction-scaling comparison) on the PRAM simulator and renders
// them as text tables. Absolute numbers are simulator-charged time
// units, not the paper's milliseconds; the comparisons reproduce the
// paper's *shape* (who wins, growth rates, crossovers) as recorded in
// DESIGN.md.
//
// Every artifact is declared in registry.go as a spec.Experiment — a
// list of measurement cells plus a renderer and an expected-shape
// check — and executed by a spec.Runner over a pool of reusable
// sessions. Cells derive all randomness from the base seed and their
// own parameters, so charged stats and rendered artifacts are
// bit-identical at any runner parallelism.
//
// The algorithms the cells run are the legs of one table, Legs
// (legs.go): each runs one algorithm on a session from host inputs
// its caller generated and states the session words it needs. The
// builtin cells and the phases of dynamic definitions
// (internal/exp/dynamic) are its two callers, so a dynamic phase
// charges what the builtin leg it names charges on the same inputs.
// This file holds the row types and table renderers the registry's
// artifacts share.
package exp

import (
	"fmt"
	"strings"
)

// Row is one measurement: problem, size, and charged times.
type Row struct {
	Problem string
	N       int
	QRQW    int64
	EREW    int64
}

// RenderRows formats measurement rows as an aligned text table.
func RenderRows(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-26s %10s %12s %12s %8s\n", "problem", "n", "QRQW time", "EREW time", "ratio")
	for _, r := range rows {
		den := float64(r.QRQW)
		if r.QRQW <= 0 {
			den = 1
		}
		ratio := float64(r.EREW) / den
		fmt.Fprintf(&b, "%-26s %10d %12d %12d %8.2f\n", r.Problem, r.N, r.QRQW, r.EREW, ratio)
	}
	return b.String()
}

// TableIIRow is one Table II measurement.
type TableIIRow struct {
	Algorithm string
	N         int
	Time      int64
}

// RenderTableII formats the Table II reproduction, one column per
// problem size present in the rows (in first-seen order).
func RenderTableII(rows []TableIIRow) string {
	var (
		sizes []int                  // column sizes in first-seen order
		order []string               // algorithms in first-seen order
		col   = map[int]int{}        // size -> column index
		times = map[string][]int64{} // algorithm -> per-column times
	)
	for _, r := range rows {
		c, ok := col[r.N]
		if !ok {
			c = len(sizes)
			col[r.N] = c
			sizes = append(sizes, r.N)
		}
		v, ok := times[r.Algorithm]
		if !ok {
			order = append(order, r.Algorithm)
		}
		for len(v) <= c {
			v = append(v, 0)
		}
		v[c] = r.Time
		times[r.Algorithm] = v
	}
	var b strings.Builder
	b.WriteString("Table II — random permutation (simulator-charged time)\n")
	fmt.Fprintf(&b, "%-28s", "Algorithm")
	for _, n := range sizes {
		fmt.Fprintf(&b, " %13d", n)
	}
	b.WriteString("\n")
	for _, name := range order {
		fmt.Fprintf(&b, "%-28s", name)
		v := times[name]
		for c := range sizes {
			var t int64
			if c < len(v) {
				t = v[c]
			}
			fmt.Fprintf(&b, " %13d", t)
		}
		b.WriteString("\n")
	}
	return b.String()
}
