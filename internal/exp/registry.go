package exp

import (
	"fmt"
	"slices"
	"strings"

	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/loadbalance"
	"lowcontend/internal/machine"
	"lowcontend/internal/perm"
	"lowcontend/internal/prim"
)

// experiments declares every artifact of the paper's evaluation as
// data: a list of measurement cells plus a renderer and an
// expected-shape check. Cell bodies derive all randomness from the base
// seed and their own parameters, never from execution order, so the
// spec.Runner may execute them in any order — or concurrently — and
// charge bit-identical stats.
var experiments = []spec.Experiment{
	tableIExperiment(),
	tableIIExperiment(),
	fig1Experiment(),
	lowerBoundExperiment(),
	compactionExperiment(),
}

// Registry returns the declared experiments in presentation order.
func Registry() []spec.Experiment { return slices.Clone(experiments) }

// Find returns the experiment with the given registry name.
func Find(name string) (spec.Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return spec.Experiment{}, false
}

// runLegs runs the named legs in order on one session of the given
// model, sized by the largest of their words, all on in. It returns the
// session and the problem size the last leg measured.
func runLegs(c *spec.Ctx, model machine.Model, in *Input, names ...string) (*core.Session, int, error) {
	words := 0
	for _, name := range names {
		words = max(words, Legs[name].Words(in))
	}
	s := c.Session(model, words, c.Seed)
	n := 0
	for _, name := range names {
		var err error
		if n, err = Legs[name].Run(s, in); err != nil {
			return nil, 0, err
		}
	}
	return s, n, nil
}

// comparison measures a QRQW algorithm against its EREW baseline: the
// qrqw legs run on one QRQW session and the erew legs on one EREW
// session, both on the input the cell's seed generates, and each
// session's stats are recorded as its series in group problem.
type comparison struct {
	problem    string
	input      func(seed uint64) *Input
	qrqw, erew []string
}

func (p comparison) cell(name string) spec.Cell {
	return spec.Cell{Name: name, Run: func(c *spec.Ctx) error {
		in := p.input(c.Seed)
		qs, n, err := runLegs(c, core.QRQW, in, p.qrqw...)
		if err != nil {
			return err
		}
		es, _, err := runLegs(c, core.EREW, in, p.erew...)
		if err != nil {
			return err
		}
		c.Record(spec.Measurement{Group: p.problem, Series: "QRQW", N: n, Stats: qs.Stats()})
		c.Record(spec.Measurement{Group: p.problem, Series: "EREW", N: n, Stats: es.Stats()})
		return nil
	}}
}

// --- Table I ---------------------------------------------------------

// tableIExperiment measures each Table I problem: the QRQW algorithm's
// charged time against its best EREW baseline's, one cell per
// (problem, size).
func tableIExperiment() spec.Experiment {
	return spec.Experiment{
		Name:         "table1",
		Description:  "Table I — five problems, QRQW algorithm vs best EREW baseline",
		DefaultSizes: []int{1 << 12, 1 << 14, 1 << 16},
		Cells:        tableICells,
		Render: func(res spec.Result) string {
			return RenderRows("Table I — QRQW vs best EREW (simulator-charged time)", tableIRows(res))
		},
		Check: func(res spec.Result) error {
			rows := tableIRows(res)
			if len(rows)%5 != 0 {
				return fmt.Errorf("table1: %d rows, want a multiple of 5", len(rows))
			}
			for _, r := range rows {
				if r.QRQW <= 0 || r.EREW <= 0 {
					return fmt.Errorf("table1: %s n=%d charged non-positive time (QRQW %d, EREW %d)",
						r.Problem, r.N, r.QRQW, r.EREW)
				}
			}
			return nil
		},
	}
}

func tableICells(sizes []int) []spec.Cell {
	var cells []spec.Cell
	for _, n := range sizes {
		sets := max(1, n/8)
		for _, p := range []comparison{
			// Random permutation: QRQW dart throwing vs EREW
			// sorting-based.
			{"random permutation", func(uint64) *Input { return &Input{N: n} },
				[]string{PermRandom}, []string{PermSorting}},
			// Multiple compaction: QRQW log-star engine vs EREW via
			// stable integer sort of the labels (the easy reduction the
			// paper cites).
			{"multiple compaction", func(seed uint64) *Input {
				return &Input{N: n, Keys: Labels(seed+uint64(n), n, sets), Sets: sets}
			}, []string{Multicompact}, []string{SortBitonic}},
			// Sorting from U(0,1): QRQW distributive sort vs EREW
			// bitonic.
			{"sorting from U(0,1)", func(seed uint64) *Input {
				return &Input{N: n, Keys: UniformKeys(seed^0x77, n, 1<<40), Max: 1 << 40}
			}, []string{SortDistributive}, []string{SortBitonic}},
			// Parallel hashing: QRQW build+lookup vs EREW batch
			// membership, at the hashing legs' capped size.
			{"parallel hashing", func(seed uint64) *Input {
				return &Input{N: n, Keys: DistinctKeys(seed+9, hashN(n))}
			}, []string{HashBuild, HashLookup}, []string{HashMembership}},
			// Load balancing (small L): QRQW dispersal vs EREW prefix
			// sums, with a small max load, the regime where QRQW wins.
			{"load balancing (L=32)", func(uint64) *Input {
				return &Input{N: n, Counts: loadbalance.TwoHeavy(n, 32, 16)}
			}, []string{Balance}, []string{BalanceEREW}},
		} {
			cells = append(cells, p.cell(fmt.Sprintf("%s/%d", p.problem, n)))
		}
	}
	return cells
}

// tableIRows converts a table1 (or compaction-style) result into
// comparison rows, one per successful cell that recorded both legs.
func tableIRows(res spec.Result) []Row {
	var rows []Row
	for _, cr := range res.Cells {
		if cr.Err != nil {
			continue
		}
		var row Row
		var haveQ, haveE bool
		for _, m := range cr.Measurements {
			switch m.Series {
			case "QRQW":
				row.Problem, row.N, row.QRQW = m.Group, m.N, m.Stats.Time
				haveQ = true
			case "EREW":
				row.EREW = m.Stats.Time
				haveE = true
			}
		}
		if haveQ && haveE {
			rows = append(rows, row)
		}
	}
	return rows
}

// --- Table II --------------------------------------------------------

// tableIIExperiment reruns the MasPar experiment on the simulator: the
// three random-permutation algorithms charged under the
// queued-contention metric (the paper argues the simd-qrqw metric
// captures the MP-1; Theorem 2.2(2) makes the qrqw charge equivalent up
// to constants). One cell per (size, algorithm).
func tableIIExperiment() spec.Experiment {
	return spec.Experiment{
		Name:         "table2",
		Description:  "Table II — the MasPar random-permutation rerun, three algorithms",
		DefaultSizes: []int{16384, 1024},
		Cells: func(sizes []int) []spec.Cell {
			algos := []struct{ name, leg string }{
				{"sorting-based (EREW)", PermSorting},
				{"dart-throwing with scans", PermScanDart},
				{"dart-throwing for QRQW", PermRandom},
			}
			var cells []spec.Cell
			for _, n := range sizes {
				for _, a := range algos {
					cells = append(cells, spec.Cell{
						Name: fmt.Sprintf("%s/%d", a.name, n),
						Run: func(c *spec.Ctx) error {
							s, _, err := runLegs(c, core.QRQW, &Input{N: n}, a.leg)
							if err != nil {
								return err
							}
							c.Record(spec.Measurement{Group: a.name, N: n, Stats: s.Stats()})
							return nil
						},
					})
				}
			}
			return cells
		},
		Render: func(res spec.Result) string { return RenderTableII(tableIIRows(res)) },
		Check: func(res spec.Result) error {
			times := map[int]map[string]int64{}
			for _, r := range tableIIRows(res) {
				if times[r.N] == nil {
					times[r.N] = map[string]int64{}
				}
				times[r.N][r.Algorithm] = r.Time
			}
			for n, t := range times {
				if len(t) != 3 {
					continue
				}
				q := t["dart-throwing for QRQW"]
				s := t["dart-throwing with scans"]
				e := t["sorting-based (EREW)"]
				if !(q < s && s < e) {
					return fmt.Errorf("table2: n=%d ordering qrqw(%d) < scans(%d) < sorting(%d) violated", n, q, s, e)
				}
			}
			return nil
		},
	}
}

func tableIIRows(res spec.Result) []TableIIRow {
	var rows []TableIIRow
	for _, m := range res.Measurements() {
		rows = append(rows, TableIIRow{Algorithm: m.Group, N: m.N, Time: m.Stats.Time})
	}
	return rows
}

// --- Figure 1 --------------------------------------------------------

// fig1Experiment renders the paper's Figure 1: a cyclic and a noncyclic
// permutation with their cycle representations, plus a freshly generated
// random cyclic permutation from the Theorem 5.2 algorithm.
func fig1Experiment() spec.Experiment {
	return spec.Experiment{
		Name:        "fig1",
		Description: "Figure 1 — cycle representations and a Theorem 5.2 cyclic permutation",
		Cells: func([]int) []spec.Cell {
			return []spec.Cell{{Name: "permutations", Run: func(c *spec.Ctx) error {
				cyc := []int{2, 0, 3, 4, 1}
				non := []int{1, 0, 3, 2, 4}
				c.Note("cyclic    pi  = %v  cycles: %v", cyc, perm.CycleRepresentation(cyc))
				c.Note("noncyclic phi = %v  cycles: %v", non, perm.CycleRepresentation(non))
				s := c.Session(core.QRQW, slackWords, c.Seed)
				p, err := s.RandomCyclicPermutation(8)
				if err != nil {
					return err
				}
				c.Note("generated (Thm 5.2, n=8): %v  cycles: %v  single cycle: %v",
					p, perm.CycleRepresentation(p), perm.IsCyclic(p))
				return nil
			}}}
		},
		Render: func(res spec.Result) string {
			var b strings.Builder
			b.WriteString("Figure 1 — permutations and cycle representations\n")
			for _, m := range res.Measurements() {
				if m.Note != "" {
					b.WriteString(m.Note)
					b.WriteString("\n")
				}
			}
			return b.String()
		},
		Check: func(res spec.Result) error {
			for _, m := range res.Measurements() {
				if strings.Contains(m.Note, "single cycle: true") {
					return nil
				}
			}
			return fmt.Errorf("fig1: generated permutation is not a single cycle")
		},
	}
}

// --- Theorem 3.2 lower bound -----------------------------------------

// lowerBoundExperiment measures QRQW load-balancing time against lg L
// (Theorem 3.2's Omega(lg L) lower bound: the measured series must grow
// at least linearly in lg L). Its "sizes" are the max-load values L.
func lowerBoundExperiment() spec.Experiment {
	const n = 1024
	return spec.Experiment{
		Name:         "lowerbound",
		Description:  "Theorem 3.2 — load-balancing time vs lg L (sizes are L values)",
		DefaultSizes: []int{4, 16, 64, 256, 1024},
		Cells: func(Ls []int) []spec.Cell {
			var cells []spec.Cell
			for _, L := range Ls {
				cells = append(cells, spec.Cell{
					Name: fmt.Sprintf("L=%d", L),
					Run: func(c *spec.Ctx) error {
						counts := make([]int, n)
						counts[0] = L
						s, _, err := runLegs(c, core.QRQW, &Input{N: n, Counts: counts}, Balance)
						if err != nil {
							return err
						}
						c.Record(spec.Measurement{Group: "load balancing", Series: "QRQW", N: L, Stats: s.Stats()})
						return nil
					},
				})
			}
			return cells
		},
		Render: func(res spec.Result) string {
			var b strings.Builder
			b.WriteString("Theorem 3.2 — load balancing time vs lg L (n = 1024)\n")
			fmt.Fprintf(&b, "%8s %8s %12s\n", "L", "lg L", "QRQW time")
			for _, m := range res.Measurements() {
				fmt.Fprintf(&b, "%8d %8d %12d\n", m.N, prim.CeilLog2(m.N), m.Stats.Time)
			}
			return b.String()
		},
		Check: func(res spec.Result) error {
			ms := res.Measurements()
			for i := 1; i < len(ms); i++ {
				if ms[i].Stats.Time < ms[i-1].Stats.Time {
					return fmt.Errorf("lowerbound: time dropped from %d (L=%d) to %d (L=%d)",
						ms[i-1].Stats.Time, ms[i-1].N, ms[i].Stats.Time, ms[i].N)
				}
			}
			if len(ms) >= 2 && ms[len(ms)-1].Stats.Time <= ms[0].Stats.Time {
				return fmt.Errorf("lowerbound: time did not grow with lg L")
			}
			return nil
		},
	}
}

// --- Compaction scaling ----------------------------------------------

// compactionExperiment compares linear-compaction growth against the
// EREW pack (the sqrt(lg n) vs lg n separation behind Table I's load
// balancing row).
func compactionExperiment() spec.Experiment {
	return spec.Experiment{
		Name:         "compaction",
		Description:  "Linear compaction vs EREW pack — the sqrt(lg n) vs lg n separation",
		DefaultSizes: []int{1 << 12, 1 << 14, 1 << 16},
		Cells: func(sizes []int) []spec.Cell {
			var cells []spec.Cell
			for _, n := range sizes {
				p := comparison{"linear compaction", func(seed uint64) *Input {
					k := n / 64
					flags, vals := CompactionInput(seed, n, k)
					return &Input{N: n, Flags: flags, Vals: vals, K: k}
				}, []string{CompactLinear}, []string{CompactEREW}}
				cells = append(cells, p.cell(fmt.Sprintf("compaction/%d", n)))
			}
			return cells
		},
		Render: func(res spec.Result) string {
			var b strings.Builder
			b.WriteString("Linear compaction vs EREW pack (k = n/64)\n")
			fmt.Fprintf(&b, "%10s %12s %12s\n", "n", "QRQW time", "EREW time")
			for _, r := range tableIRows(res) {
				fmt.Fprintf(&b, "%10d %12d %12d\n", r.N, r.QRQW, r.EREW)
			}
			return b.String()
		},
		Check: func(res spec.Result) error {
			rows := tableIRows(res)
			if len(rows) < 2 {
				return nil
			}
			first, last := rows[0], rows[len(rows)-1]
			if last.EREW-last.QRQW <= first.EREW-first.QRQW {
				return fmt.Errorf("compaction: EREW-QRQW separation did not widen (n=%d: %d, n=%d: %d)",
					first.N, first.EREW-first.QRQW, last.N, last.EREW-last.QRQW)
			}
			return nil
		},
	}
}
