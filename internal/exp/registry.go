package exp

import (
	"fmt"
	"slices"
	"strings"

	"lowcontend/internal/compact"
	"lowcontend/internal/core"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/hashing"
	"lowcontend/internal/loadbalance"
	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/perm"
	"lowcontend/internal/prim"
	"lowcontend/internal/sortalg"
	"lowcontend/internal/xrand"
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

// Every cell sizes its sessions from its n, so that a session holds
// what the cell allocates at its peak and never grows mid-cell, and a
// small cell does not lease a large session. The sizes come from the
// footprint record that TestGoldenFootprint pins
// (testdata/golden/footprint-default-seed1.txt), and
// TestBuiltinRequestsCoverFootprint checks each request against its
// measured peak. Where an algorithm package can state its footprint
// exactly (perm.RandomWords, loadbalance.Words,
// compact.LinearCompactWords), the cell asks it; elsewhere the size is
// the measured words per element at powers of two plus slackWords for
// the fixed costs and the seed-to-seed spread of randomized runs. A
// non-power-of-two n pads some sorts to the next power of two, and a
// session asked for too little grows by doubling: correct, only larger.
const slackWords = 1024

// sortingBasedWords sizes perm.SortingBased: its output, keys, shadow
// copy and duplicate flags (4n words) and the 2n-word reduction tree
// over the flags; the bitonic sort of a power-of-two n runs in place.
func sortingBasedWords(n int) int { return 6*n + slackWords }

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
	record := func(c *spec.Ctx, problem string, n int, qs, es *core.Session) {
		c.Record(spec.Measurement{Group: problem, Series: "QRQW", N: n, Stats: qs.Stats()})
		c.Record(spec.Measurement{Group: problem, Series: "EREW", N: n, Stats: es.Stats()})
	}
	for _, n := range sizes {
		cells = append(cells,
			// Random permutation: QRQW dart throwing vs EREW
			// sorting-based.
			spec.Cell{Name: fmt.Sprintf("random permutation/%d", n), Run: func(c *spec.Ctx) error {
				qs := c.Session(core.QRQW, perm.RandomWords(n), c.Seed)
				if _, err := perm.Random(qs.Machine(), n); err != nil {
					return err
				}
				es := c.Session(core.EREW, sortingBasedWords(n), c.Seed)
				if _, err := perm.SortingBased(es.Machine(), n); err != nil {
					return err
				}
				record(c, "random permutation", n, qs, es)
				return nil
			}},

			// Multiple compaction: QRQW log-star engine vs EREW via
			// stable integer sort of the labels (the easy reduction the
			// paper cites).
			spec.Cell{Name: fmt.Sprintf("multiple compaction/%d", n), Run: func(c *spec.Ctx) error {
				labels := make([]int, n)
				s := xrand.NewStream(c.Seed + uint64(n))
				for i := range labels {
					labels[i] = s.Intn(prim.Max(1, n/8))
				}
				qs := c.Session(core.QRQW, 11*n+n/4+slackWords, c.Seed)
				in, err := multicompact.BuildInput(qs.Machine(), labels, prim.Max(1, n/8))
				if err != nil {
					return err
				}
				if _, err := multicompact.Run(qs.Machine(), in); err != nil {
					return err
				}
				es := c.Session(core.EREW, n+slackWords, c.Seed)
				kb := es.UploadInts(labels)
				if err := prim.BitonicSortPadded(es.Machine(), kb.Base(), -1, n); err != nil {
					return err
				}
				record(c, "multiple compaction", n, qs, es)
				return nil
			}},

			// Sorting from U(0,1): QRQW distributive sort vs EREW
			// bitonic.
			spec.Cell{Name: fmt.Sprintf("sorting from U(0,1)/%d", n), Run: func(c *spec.Ctx) error {
				s := xrand.NewStream(c.Seed ^ 0x77)
				vals := make([]machine.Word, n)
				for i := range vals {
					vals[i] = machine.Word(s.Uint64n(1 << 40))
				}
				qs := c.Session(core.QRQW, 34*n+n/8+slackWords, c.Seed)
				keys := qs.Upload(vals)
				if err := sortalg.DistributiveSort(qs.Machine(), keys.Base(), keys.Len(), 1<<40); err != nil {
					return err
				}
				es := c.Session(core.EREW, n+slackWords, c.Seed)
				kb := es.Upload(vals)
				if err := prim.BitonicSortPadded(es.Machine(), kb.Base(), -1, n); err != nil {
					return err
				}
				record(c, "sorting from U(0,1)", n, qs, es)
				return nil
			}},

			// Parallel hashing: QRQW build+lookup vs EREW batch
			// membership.
			spec.Cell{Name: fmt.Sprintf("parallel hashing/%d", n), Run: func(c *spec.Ctx) error {
				hn := prim.Min(n, 1<<13) // hashing memory grows fastest
				hkeys := distinct(c.Seed+9, hn)
				// The table's retries make the QRQW peak vary by a few
				// hundred words across seeds.
				qs := c.Session(core.QRQW, 101*hn+2*slackWords, c.Seed)
				hb := qs.Upload(hkeys)
				tb, err := hashing.Build(qs.Machine(), hb.Base(), hb.Len())
				if err != nil {
					return err
				}
				qb := qs.Upload(hkeys)
				ob := qs.Malloc(hn)
				if err := tb.Lookup(qb.Base(), ob.Base(), hn); err != nil {
					return err
				}
				es := c.Session(core.EREW, 13*hn+slackWords, c.Seed)
				kb := es.Upload(hkeys)
				qb2 := es.Upload(hkeys)
				ob2 := es.Malloc(hn)
				if err := hashing.EREWMembership(es.Machine(), kb.Base(), hn, qb2.Base(), ob2.Base(), hn); err != nil {
					return err
				}
				record(c, "parallel hashing", hn, qs, es)
				return nil
			}},

			// Load balancing (small L): QRQW dispersal vs EREW prefix
			// sums.
			spec.Cell{Name: fmt.Sprintf("load balancing (L=32)/%d", n), Run: func(c *spec.Ctx) error {
				// Small max load: the regime where QRQW wins.
				counts := loadbalance.TwoHeavy(n, 32, 16)
				qs := c.Session(core.QRQW, loadbalance.Words(counts), c.Seed)
				if _, err := qs.BalanceLoads(counts); err != nil {
					return err
				}
				es := c.Session(core.EREW, 4*n+slackWords, c.Seed)
				if _, err := loadbalance.EREWBalance(es.Machine(), counts); err != nil {
					return err
				}
				record(c, "load balancing (L=32)", n, qs, es)
				return nil
			}},
		)
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
			algos := []struct {
				name  string
				f     func(*machine.Machine, int) (int, error)
				words func(n int) int
			}{
				{"sorting-based (EREW)", perm.SortingBased, sortingBasedWords},
				{"dart-throwing with scans", perm.ScanDart, func(n int) int { return 13*n + slackWords }},
				{"dart-throwing for QRQW", perm.Random, perm.RandomWords},
			}
			var cells []spec.Cell
			for _, n := range sizes {
				for _, a := range algos {
					cells = append(cells, spec.Cell{
						Name: fmt.Sprintf("%s/%d", a.name, n),
						Run: func(c *spec.Ctx) error {
							s := c.Session(core.QRQW, a.words(n), c.Seed)
							if _, err := a.f(s.Machine(), n); err != nil {
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
						s := c.Session(core.QRQW, loadbalance.Words(counts), c.Seed)
						if _, err := s.BalanceLoads(counts); err != nil {
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
				cells = append(cells, spec.Cell{
					Name: fmt.Sprintf("compaction/%d", n),
					Run: func(c *spec.Ctx) error {
						k := n / 64
						s := xrand.NewStream(c.Seed)
						pm := s.Perm(n)
						flagVals := make([]machine.Word, n)
						cellVals := make([]machine.Word, n)
						for j := 0; j < k; j++ {
							flagVals[pm[j]] = 1
							cellVals[pm[j]] = machine.Word(j)
						}
						qs := c.Session(core.QRQW, 2*n+compact.LinearCompactWords(n, k), c.Seed)
						flags := qs.Upload(flagVals)
						vals := qs.Upload(cellVals)
						if _, err := compact.LinearCompact(qs.Machine(), flags.Base(), vals.Base(), n, k); err != nil {
							return err
						}
						es := c.Session(core.EREW, 6*n+k+slackWords, c.Seed)
						flags2 := es.Upload(flagVals)
						vals2 := es.Upload(cellVals)
						if _, err := compact.EREWCompact(es.Machine(), flags2.Base(), vals2.Base(), n, k); err != nil {
							return err
						}
						c.Record(spec.Measurement{Group: "linear compaction", Series: "QRQW", N: n, Stats: qs.Stats()})
						c.Record(spec.Measurement{Group: "linear compaction", Series: "EREW", N: n, Stats: es.Stats()})
						return nil
					},
				})
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

func distinct(seed uint64, n int) []machine.Word {
	s := xrand.NewStream(seed)
	seen := make(map[machine.Word]bool, n)
	out := make([]machine.Word, 0, n)
	for len(out) < n {
		k := machine.Word(s.Uint64n(1 << 30))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
