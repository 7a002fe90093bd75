// Command lowcontend regenerates the evaluation artifacts of Gibbons,
// Matias & Ramachandran, "Efficient Low-Contention Parallel Algorithms"
// on the QRQW PRAM simulator.
//
// Usage:
//
//	lowcontend [flags] list
//	lowcontend [flags] run <experiment> [run <experiment> ...]
//	lowcontend [flags] define <definition.json> [define <file> ...]
//	lowcontend [flags] profile <experiment> [profile <experiment> ...]
//	lowcontend [flags] sweep <experiment> [sweep flags]
//	lowcontend [flags] table1|table2|fig1|lowerbound|compaction|selftest|all
//
// Flags:
//
//	-seed N        base random seed (default 1)
//	-parallel N    concurrent experiment cells (0 = GOMAXPROCS)
//	-sizes a,b     comma-separated sizes overriding each experiment's defaults
//	-model M       charge every cell under contention model M (e.g. crcw)
//	               instead of the models the experiment pins
//	-json          emit machine-readable JSON (results + charged stats, plus
//	               session-pool hit/miss counters under "pool" and the
//	               pooled machines' engine counters under "exec") instead
//	               of text
//	-results-only  with -json, emit the results array alone — no pool or
//	               engine counters — so output is byte-comparable across
//	               -parallel
//	-check         verify each experiment's expected paper shape after running
//	-n N           problem size for selftest
//	-timing        print per-cell wall-clock and engine execution telemetry
//	               (steps settled, descriptor traffic) to stderr after
//	               each run
//
// Sweep flags (after `sweep <experiment>`; global -sizes/-seed/-parallel/
// -json provide the defaults):
//
//	-models a,b  comma-separated contention models; the first is the
//	             ratio baseline (default qrqw,crcw,erew; a global -model
//	             with no -models sweeps that single model)
//	-sizes a,b   sizes of the sweep's size axis
//	-seeds a,b   base seeds (the grid is models × sizes × seeds)
//	-seed N      shorthand for a single-entry -seeds
//	-parallel N  concurrent cells, across all grid points (0 = GOMAXPROCS)
//	-json        emit the sweep result as JSON instead of text
//
// Experiments are declared in the internal/exp registry and executed by
// a concurrent runner over a pool of reusable sessions; charged stats
// and rendered artifacts are bit-identical at any -parallel value.
// define validates a declarative JSON experiment definition (the same
// document POST /v1/experiments accepts) with the exact same strict
// rules as the daemon, compiles it against the algorithm legs, and runs
// it locally — its rendered artifact is byte-identical to the daemon's
// artifact for the same definition, sizes, and seed.
// profile runs an experiment with per-step tracing and renders each
// cell's contention profile — per-phase cost attribution, a kappa
// histogram, and hot cells — instead of the artifact (with -json, the
// profiles attach to each cell's result). sweep reruns one experiment
// across the cross-product of models × sizes × seeds and renders the
// comparative artifact: a model×size charged-time matrix with ratios
// against the baseline model, per-model kappa histograms, and the
// violation marks of models whose rules the algorithm's access pattern
// breaks. selftest exercises every core.Session entry point at size -n
// and prints the charged costs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/dynamic"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/machine"
	"lowcontend/internal/perm"
	"lowcontend/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	seed := flag.Uint64("seed", 1, "base random seed")
	n := flag.Int("n", 512, "problem size for selftest")
	parallel := flag.Int("parallel", 0, "concurrent experiment cells (0 = GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON (with session-pool counters) instead of rendered tables")
	resultsOnly := flag.Bool("results-only", false, "with -json, emit the results array alone (no pool counters); byte-comparable across -parallel")
	sizesFlag := flag.String("sizes", "", "comma-separated sizes overriding each experiment's defaults")
	modelFlag := flag.String("model", "", "charge every cell under this contention model instead of the experiment's pinned models")
	check := flag.Bool("check", false, "verify each experiment's expected paper shape after running")
	timing := flag.Bool("timing", false, "print per-cell wall-clock and engine execution telemetry to stderr after each run")
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lowcontend: %v\n", err)
		return 2
	}
	var modelOverride *machine.Model
	if *modelFlag != "" {
		m, ok := machine.ParseModel(*modelFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "lowcontend: unknown model %q\n", *modelFlag)
			return 2
		}
		modelOverride = &m
	}

	// One session pool serves every action of the invocation.
	par := *parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	pool := core.NewSessionPool()
	defer pool.Close()
	runner := &spec.Runner{Parallel: par, Pool: pool, Model: modelOverride}
	profRunner := &spec.Runner{Parallel: par, Pool: pool, Profile: true, Model: modelOverride}
	// -timing taps the runners' cell observer: wall-clock and engine
	// telemetry go to stderr, so text artifacts and -json documents stay
	// byte-identical with and without the flag.
	var sink *timingSink
	if *timing {
		sink = &timingSink{}
		runner.CellObserver = sink.observe
		profRunner.CellObserver = sink.observe
	}

	// Resolve the argument list into an ordered action plan first, so
	// argument errors abort before any work runs, then execute the plan
	// strictly in argument order.
	cmds := flag.Args()
	if len(cmds) == 0 {
		cmds = []string{"all"}
	}
	type action struct {
		name     string           // registry name, or the pseudo-action "list"/"selftest"
		profiled bool             // render the contention profile instead of the artifact
		dyn      *spec.Experiment // non-nil: compiled from a definition file, not the registry
	}
	var actions []action
	var sweepInv *sweepInvocation // non-nil once a sweep subcommand consumed the tail
	for i := 0; i < len(cmds); i++ {
		switch cmd := cmds[i]; cmd {
		case "list", "selftest":
			actions = append(actions, action{name: cmd})
		case "run", "profile":
			if i+1 >= len(cmds) {
				fmt.Fprintf(os.Stderr, "lowcontend: %s requires an experiment name (see lowcontend list)\n", cmd)
				return 2
			}
			i++
			if _, ok := exp.Find(cmds[i]); !ok {
				fmt.Fprintf(os.Stderr, "lowcontend: unknown experiment %q (see lowcontend list)\n", cmds[i])
				return 2
			}
			actions = append(actions, action{name: cmds[i], profiled: cmd == "profile"})
		case "define":
			// A definition file goes through the exact validation and
			// compilation pipeline the daemon uses, during planning, so a
			// malformed document aborts with the same message POST
			// /v1/experiments would have returned in its error envelope.
			if i+1 >= len(cmds) {
				fmt.Fprintf(os.Stderr, "lowcontend: define requires a definition file (JSON; see README)\n")
				return 2
			}
			i++
			raw, err := os.ReadFile(cmds[i])
			if err != nil {
				fmt.Fprintf(os.Stderr, "lowcontend: %v\n", err)
				return 2
			}
			def, derr := dynamic.Parse(raw, dynamic.DefaultLimits())
			if derr != nil {
				fmt.Fprintf(os.Stderr, "lowcontend: %s: %v\n", cmds[i], derr)
				return 2
			}
			e := dynamic.Compile(def)
			actions = append(actions, action{name: def.Name, dyn: &e})
		case "sweep":
			// Sweep owns the remainder of the command line: its own flags
			// (-models, -seeds, ...) follow the experiment name, so it is
			// necessarily the last subcommand of an invocation. Parsed —
			// and its plan validated — here, so a bad sweep invocation
			// aborts before any earlier action simulates.
			inv, code := parseSweep(cmds[i+1:], sizes, *seed, *parallel, *jsonOut, modelOverride)
			if code != 0 {
				return code
			}
			sweepInv = &inv
			i = len(cmds)
		case "all":
			for _, e := range exp.Registry() {
				actions = append(actions, action{name: e.Name})
			}
		default:
			if _, ok := exp.Find(cmd); !ok {
				fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", cmd)
				return 2
			}
			actions = append(actions, action{name: cmd})
		}
	}

	exit := 0
	var results []spec.Result
	for _, a := range actions {
		if a.dyn == nil {
			switch a.name {
			case "list":
				printList(sizes)
				continue
			case "selftest":
				if err := selftest(*n, *seed); err != nil {
					fmt.Fprintf(os.Stderr, "lowcontend: %v\n", err)
					exit = 1
				}
				continue
			}
		}
		e, _ := exp.Find(a.name)
		if a.dyn != nil {
			e = *a.dyn
		}
		sz := sizes
		if sz == nil {
			sz = e.DefaultSizes
		}
		r := runner
		if a.profiled {
			r = profRunner
		}
		res := r.Run(e, sz, *seed)
		if sink != nil {
			sink.flush(os.Stderr, res.Experiment)
		}
		for _, c := range res.Cells {
			if c.Err != nil {
				fmt.Fprintf(os.Stderr, "lowcontend: %s/%s: %v\n", res.Experiment, c.Cell, c.Err)
				exit = 1
			}
		}
		switch {
		case *jsonOut:
			results = append(results, res)
		case a.profiled:
			fmt.Println(spec.RenderProfiles(res))
		default:
			fmt.Println(e.Render(res))
		}
		if *check && e.Check != nil {
			if err := e.Check(res); err != nil {
				fmt.Fprintf(os.Stderr, "lowcontend: shape check failed: %v\n", err)
				exit = 1
			}
		}
	}
	if *jsonOut && results != nil {
		// The pool and engine counters ride along so session reuse and
		// descriptor traffic are visible outside tests. The engine
		// counters depend on the program alone, but the pool's depend
		// on -parallel (more concurrent cells need more fresh
		// sessions), so determinism diffs pass -results-only, which
		// drops both and leaves output byte-comparable across
		// -parallel values.
		ps, ex := pool.StatsLive()
		var doc any = struct {
			Results []spec.Result     `json:"results"`
			Pool    core.PoolStats    `json:"pool"`
			Exec    machine.ExecStats `json:"exec"`
		}{results, ps, ex}
		if *resultsOnly {
			doc = struct {
				Results []spec.Result `json:"results"`
			}{results}
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lowcontend: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	}
	if sweepInv != nil {
		if code := runSweep(pool, *sweepInv); code != 0 {
			return code
		}
	}
	if sink != nil {
		sink.summary(os.Stderr, pool)
	}
	return exit
}

// timingSink collects per-cell timing spans when -timing is set; cells
// may finish concurrently, so appends are mutex-guarded and flush sorts
// rows back into declaration order.
type timingSink struct {
	mu   sync.Mutex
	rows []timingRow
}

type timingRow struct {
	cell          string
	idx           int
	wall, acquire time.Duration
	ex            machine.ExecStats
}

func (t *timingSink) observe(res spec.CellResult, ct spec.CellTiming) {
	t.mu.Lock()
	t.rows = append(t.rows, timingRow{res.Cell, res.Index, ct.Wall, ct.Acquire, res.Exec})
	t.mu.Unlock()
}

// flush prints and clears the rows collected since the previous run.
func (t *timingSink) flush(w io.Writer, name string) {
	t.mu.Lock()
	rows := t.rows
	t.rows = nil
	t.mu.Unlock()
	sort.Slice(rows, func(a, b int) bool { return rows[a].idx < rows[b].idx })
	fmt.Fprintf(w, "timing: %s\n", name)
	fmt.Fprintf(w, "  %-36s %12s %12s %6s\n", "cell", "wall", "acquire", "serial")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-36s %12v %12v %6d\n",
			r.cell, r.wall.Round(time.Microsecond), r.acquire.Round(time.Microsecond), r.ex.SerialSteps)
	}
}

// summary prints the invocation-wide pool and engine totals.
func (t *timingSink) summary(w io.Writer, pool *core.SessionPool) {
	ps, ex := pool.StatsLive()
	fmt.Fprintf(w, "timing: pool acquires=%d reuses=%d news=%d\n", ps.Acquires, ps.Reuses, ps.News)
	fmt.Fprintf(w, "timing: exec serial=%d bulk=%d expanded=%d\n",
		ex.SerialSteps, ex.BulkDescriptors, ex.BulkExpanded)
}

// sweepInvocation is a fully validated sweep subcommand, ready to run.
type sweepInvocation struct {
	e        spec.Experiment
	plan     sweep.Plan
	parallel int // concurrent cells, GOMAXPROCS when unset
	jsonOut  bool
}

// parseSweep resolves the sweep subcommand's tail — `<experiment>`
// followed by its own flag set (global -sizes/-seed/-parallel/-json
// supply the defaults; a global -model, with no -models, sweeps that
// single model) — into a normalized plan. It runs during argument
// planning, so every sweep error aborts before any action simulates.
func parseSweep(args []string, defSizes []int, defSeed uint64, defParallel int, defJSON bool, defModel *machine.Model) (sweepInvocation, int) {
	var inv sweepInvocation
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(os.Stderr, "lowcontend: sweep requires an experiment name (see lowcontend list)\n")
		return inv, 2
	}
	e, ok := exp.Find(args[0])
	if !ok {
		fmt.Fprintf(os.Stderr, "lowcontend: unknown experiment %q (see lowcontend list)\n", args[0])
		return inv, 2
	}
	inv.e = e
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	models := fs.String("models", "", "comma-separated contention models; the first is the ratio baseline (default qrqw,crcw,erew)")
	sizesFlag := fs.String("sizes", "", "comma-separated sizes of the sweep's size axis")
	seedsFlag := fs.String("seeds", "", "comma-separated base seeds (grid = models x sizes x seeds)")
	seedFlag := fs.Uint64("seed", defSeed, "single base seed (shorthand for -seeds)")
	par := fs.Int("parallel", defParallel, "concurrent cells (0 = GOMAXPROCS)")
	jsonOut := fs.Bool("json", defJSON, "emit the sweep result as JSON instead of text")
	if err := fs.Parse(args[1:]); err != nil {
		return inv, 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "lowcontend: sweep: unexpected argument %q\n", fs.Arg(0))
		return inv, 2
	}
	inv.jsonOut = *jsonOut
	if inv.parallel = *par; inv.parallel <= 0 {
		inv.parallel = runtime.GOMAXPROCS(0)
	}

	plan := sweep.Plan{Experiment: e.Name}
	var err error
	switch {
	case *models != "":
		if plan.Models, err = sweep.ParseModels(*models); err != nil {
			fmt.Fprintf(os.Stderr, "lowcontend: sweep: %v\n", err)
			return inv, 2
		}
		if defModel != nil {
			fmt.Fprintf(os.Stderr, "lowcontend: sweep: pass either the global -model or sweep -models, not both\n")
			return inv, 2
		}
	case defModel != nil:
		// The global single-model override becomes a one-model sweep
		// rather than being silently ignored.
		plan.Models = []string{defModel.String()}
	}
	if *sizesFlag != "" {
		if plan.Sizes, err = parseSizes(*sizesFlag); err != nil {
			fmt.Fprintf(os.Stderr, "lowcontend: sweep: %v\n", err)
			return inv, 2
		}
	} else {
		plan.Sizes = defSizes
	}
	if *seedsFlag != "" {
		for _, part := range strings.Split(*seedsFlag, ",") {
			s, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lowcontend: sweep: bad -seeds entry %q\n", part)
				return inv, 2
			}
			plan.Seeds = append(plan.Seeds, s)
		}
	} else {
		plan.Seeds = []uint64{*seedFlag}
	}
	if inv.plan, err = sweep.Normalize(e, plan); err != nil {
		fmt.Fprintf(os.Stderr, "lowcontend: sweep: %v\n", err)
		return inv, 2
	}
	return inv, 0
}

// runSweep executes a parsed sweep over the invocation's shared session
// pool, so machines warmed by earlier actions are recycled by the grid.
// Model violations are comparative data — they render as violation
// marks in the artifact — so a completed sweep exits 0 even when some
// grid cells violated their model.
func runSweep(pool *core.SessionPool, inv sweepInvocation) int {
	res := (&sweep.Runner{Parallel: inv.parallel, Pool: pool}).Run(inv.e, inv.plan)
	if inv.jsonOut {
		out, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lowcontend: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}
	fmt.Println(sweep.RenderText(res))
	return 0
}

// printList renders the registry through the same Describe path the
// daemon's GET /v1/experiments serves, so the cells column reflects a
// -sizes filter — including a 0 for experiments whose size grid the
// filter misses entirely, rather than hiding the row.
func printList(sizes []int) {
	fmt.Println("Experiments (lowcontend run <name>; profile <name> for contention profiles; sweep <name> for cross-model grids):")
	for _, in := range exp.DescribeUnder(exp.Builtins(), sizes) {
		extra := ""
		if in.DefaultSizes != nil {
			parts := make([]string, len(in.DefaultSizes))
			for i, n := range in.DefaultSizes {
				parts[i] = strconv.Itoa(n)
			}
			extra = "  [sizes: " + strings.Join(parts, ",") + "]"
		}
		fmt.Printf("  %-12s cells=%-3d %s%s\n", in.Name, in.Cells, in.Description, extra)
	}
	fmt.Println()
	fmt.Println("Serve these over HTTP: lowcontendd starts a daemon (POST /v1/runs; see README),")
	fmt.Println("and define your own: POST /v1/experiments, or lowcontend define <file.json> locally.")
}

func parseSizes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -sizes entry %q", part)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// selftest runs every core.Session entry point at size n on one reused
// session, printing each phase's charged cost. It doubles as the smoke
// path: any facade or engine regression fails it.
func selftest(n int, seed uint64) error {
	if n < 1 {
		return fmt.Errorf("selftest: -n must be at least 1 (got %d)", n)
	}
	s := core.NewSession(core.QRQW, 1<<16, core.WithSeed(seed))
	defer s.Close()

	p, err := s.RandomPermutation(n)
	if err != nil {
		return err
	}
	if !perm.IsPermutation(p) {
		return fmt.Errorf("selftest: invalid permutation")
	}
	fmt.Printf("random permutation    n=%-6d %v\n", n, s.Stats())

	s.Reset()
	cp, err := s.RandomCyclicPermutation(n)
	if err != nil {
		return err
	}
	if !perm.IsCyclic(cp) {
		return fmt.Errorf("selftest: permutation not cyclic")
	}
	fmt.Printf("cyclic permutation    n=%-6d %v\n", n, s.Stats())

	s.Reset()
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % max(1, n/8)
	}
	if _, err := s.MultipleCompaction(labels, max(1, n/8)); err != nil {
		return err
	}
	fmt.Printf("multiple compaction   n=%-6d %v\n", n, s.Stats())

	s.Reset()
	keys := make([]core.Word, n)
	for i := range keys {
		keys[i] = core.Word((int64(i)*2654435761 + 1) % (1 << 30))
	}
	if err := s.SortUniform(append([]core.Word(nil), keys...), 1<<30); err != nil {
		return err
	}
	fmt.Printf("distributive sort     n=%-6d %v\n", n, s.Stats())

	s.Reset()
	tb, err := s.BuildHashTable(keys)
	if err != nil {
		return err
	}
	found, err := tb.Lookup(keys[:min(n, 16)])
	if err != nil {
		return err
	}
	for _, ok := range found {
		if !ok {
			return fmt.Errorf("selftest: hash table lost a key")
		}
	}
	fmt.Printf("hashing build+lookup  n=%-6d %v\n", n, s.Stats())

	s.Reset()
	counts := make([]int, n)
	counts[0] = 32
	if _, err := s.BalanceLoads(counts); err != nil {
		return err
	}
	fmt.Printf("load balancing        n=%-6d %v\n", n, s.Stats())
	fmt.Println("selftest ok")
	return nil
}
