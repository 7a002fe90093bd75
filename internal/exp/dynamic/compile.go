package dynamic

import (
	"fmt"
	"hash/fnv"
	"strings"

	"lowcontend/internal/core"
	"lowcontend/internal/exp"
	"lowcontend/internal/exp/spec"
	"lowcontend/internal/hashing"
	"lowcontend/internal/loadbalance"
	"lowcontend/internal/machine"
)

// Compile turns a canonicalized definition into a runnable
// spec.Experiment. The compiled experiment honors the whole existing
// contract: cells derive all randomness from the runner's base seed and
// their own parameters (the definition's seed entries are mixed in, not
// substituted), so artifacts are byte-identical at any parallelism; the
// runner's model override (the daemon's "model" field, the CLI's
// -model) recharges every session uniformly via spec.Ctx.Session.
//
// Cells expand over the intersection of the requested sizes with the
// definition's own size grid — the grid is part of the content hash, so
// running outside it would let one id name different workloads. A
// disjoint filter yields zero cells; listings report that honestly and
// the daemon refuses such runs up front.
func Compile(def Definition) spec.Experiment {
	return spec.Experiment{
		Name:         def.Name,
		Description:  dynDescription(def),
		DefaultSizes: append([]int(nil), def.Sizes...),
		Cells:        func(sizes []int) []spec.Cell { return cells(def, sizes) },
		Render:       func(res spec.Result) string { return render(def, res) },
	}
}

// dynDescription is the listing description: the author's text, or a
// synthesized phase summary.
func dynDescription(def Definition) string {
	if def.Description != "" {
		return def.Description
	}
	return "dynamic: " + strings.Join(PhaseNames(def), ", ")
}

// PhaseNames returns the definition's phase names in execution order.
func PhaseNames(def Definition) []string {
	names := make([]string, len(def.Phases))
	for i, ph := range def.Phases {
		names[i] = ph.Name
	}
	return names
}

// Models returns the models the definition charges under: the
// comparison-mode list, or the distinct pinned models in first-use
// order.
func Models(def Definition) []string {
	if len(def.Models) > 0 {
		return append([]string(nil), def.Models...)
	}
	var out []string
	for _, ph := range def.Phases {
		found := false
		for _, m := range out {
			if m == ph.Model {
				found = true
				break
			}
		}
		if !found {
			out = append(out, ph.Model)
		}
	}
	return out
}

func cells(def Definition, sizes []int) []spec.Cell {
	grid := make(map[int]bool, len(def.Sizes))
	for _, n := range def.Sizes {
		grid[n] = true
	}
	var out []spec.Cell
	for _, n := range sizes {
		if !grid[n] {
			continue
		}
		for _, sd := range def.Seeds {
			out = append(out, spec.Cell{
				Name: fmt.Sprintf("n=%d/seed=%d", n, sd),
				Run:  cellRun(def, n, sd),
			})
		}
	}
	return out
}

// mixSeed folds one definition seed entry into the runner's base seed
// (splitmix64 finisher): a pure function of both, so changing either
// reshuffles every derived stream while staying order-independent.
func mixSeed(base, entry uint64) uint64 {
	x := base + entry*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cellRun builds one cell's body. In comparison mode the whole pipeline
// runs once per model on identical host inputs; in pinned mode each
// phase runs in its model's session (one session per distinct model,
// created in first-use order so session acquisition is deterministic).
// Each session requests the largest words of the phases it runs, and
// before each phase reserves its current allocation plus that phase's
// words, so a session whose phases together outgrow the request grows
// exactly, at most once per phase; charged stats do not depend on
// capacity. Every phase's measurement is the session's stats delta
// across the phase — spec's capture-and-Sub idiom — so composed phases
// attribute their own cost even while sharing device state.
func cellRun(def Definition, n int, sd uint64) func(*spec.Ctx) error {
	return func(c *spec.Ctx) error {
		seed := mixSeed(c.Seed, sd)
		arrays := map[string]ArrayDecl{}
		for _, a := range def.Arrays {
			arrays[a.Name] = a
		}
		ins := make([]exp.Input, len(def.Phases))
		for i, ph := range def.Phases {
			ins[i] = phaseInput(ph, arrays[ph.Array], n)
		}
		// words sizes the session of model: every phase in comparison
		// mode, where no phase pins one, else the phases pinning it.
		words := func(model string) int {
			w := 0
			for i, ph := range def.Phases {
				if ph.Model == model {
					w = max(w, exp.Legs[ph.Algorithm].Words(&ins[i]))
				}
			}
			return w
		}
		hosts := map[string][]machine.Word{}
		runPhase := func(st *sessionState, i int, series string) error {
			ph, in := def.Phases[i], ins[i]
			if a, ok := arrays[ph.Array]; ok {
				if hosts[a.Name] == nil {
					hosts[a.Name] = hostArray(a, n, seed)
				}
				in.Keys = hosts[a.Name]
				in.Resident = func() core.DeviceSlice { return st.device(a.Name, in.Keys) }
				in.Table = st.tables[a.Name]
			}
			if in.K > 0 {
				in.Flags, in.Vals = exp.CompactionInput(seed, n, in.K)
			}
			// What earlier phases left resident stays allocated, so the
			// phase needs its words above the current allocation: grow
			// to exactly that now rather than doubling mid-phase.
			m := st.s.Machine()
			m.Reserve(m.Allocated() + exp.Legs[ph.Algorithm].Words(&in))
			before := st.s.Stats()
			measN, err := exp.Legs[ph.Algorithm].Run(st.s, &in)
			if err != nil {
				return fmt.Errorf("phase %s: %w", ph.Name, err)
			}
			if in.Table != nil {
				st.tables[ph.Array] = in.Table
			}
			c.Record(spec.Measurement{
				Group:  ph.Name,
				Series: series,
				N:      measN,
				Stats:  st.s.Stats().Sub(before),
			})
			return nil
		}
		if len(def.Models) > 0 {
			// Comparison mode: hosts are shared, device state is not —
			// each model's session uploads its own copies.
			for _, name := range def.Models {
				model, _ := machine.ParseModel(name)
				st := newSessionState(c.Session(model, words(""), seed))
				for i := range def.Phases {
					if err := runPhase(st, i, name); err != nil {
						return err
					}
				}
			}
			return nil
		}
		// Pinned mode: phases sharing a model share one session (and
		// its device arrays and hash tables).
		states := map[string]*sessionState{}
		for i, ph := range def.Phases {
			st, ok := states[ph.Model]
			if !ok {
				model, _ := machine.ParseModel(ph.Model)
				st = newSessionState(c.Session(model, words(ph.Model), seed))
				states[ph.Model] = st
			}
			if err := runPhase(st, i, ph.Model); err != nil {
				return err
			}
		}
		return nil
	}
}

// phaseInput is a phase's leg input at size n, from its parameters and
// those of its array a (the zero ArrayDecl when it takes none): enough
// to state its words. The phase's arrays are generated when it runs.
func phaseInput(ph Phase, a ArrayDecl, n int) exp.Input {
	in := exp.Input{N: n, Max: machine.Word(a.Params["max"])}
	if a.Fill == "labels" {
		in.Sets = labelSets(a, n)
	}
	if div, ok := ph.Params["k_div"]; ok {
		in.K = max(1, n/int(div))
	}
	if load, ok := ph.Params["max_load"]; ok {
		in.Counts = loadbalance.TwoHeavy(n, int(load), int(ph.Params["second_load"]))
	}
	return in
}

// hostArray materializes one declared array deterministically from the
// cell seed and the array's own name — never from execution order — so
// every session (and every parallelism level) sees identical inputs.
func hostArray(a ArrayDecl, n int, seed uint64) []machine.Word {
	h := fnv.New64a()
	h.Write([]byte(a.Name))
	seed ^= h.Sum64()
	switch a.Fill {
	case "distinct":
		return exp.DistinctKeys(seed, n)
	case "uniform":
		return exp.UniformKeys(seed, n, uint64(a.Params["max"]))
	default: // "labels"
		return exp.Labels(seed, n, labelSets(a, n))
	}
}

// labelSets is the label count of a "labels" array at size n.
func labelSets(a ArrayDecl, n int) int { return max(1, n/int(a.Params["div"])) }

// sessionState is the device-side state one session accumulates across
// phases: uploaded arrays (first reference uploads, later phases see
// mutations) and built hash tables.
type sessionState struct {
	s      *core.Session
	arrays map[string]core.DeviceSlice
	tables map[string]*hashing.Table
}

func newSessionState(s *core.Session) *sessionState {
	return &sessionState{
		s:      s,
		arrays: map[string]core.DeviceSlice{},
		tables: map[string]*hashing.Table{},
	}
}

// device returns the named array device-resident, uploading host on
// the session's first reference.
func (st *sessionState) device(name string, host []machine.Word) core.DeviceSlice {
	if d, ok := st.arrays[name]; ok {
		return d
	}
	d := st.s.Upload(host)
	st.arrays[name] = d
	return d
}

// render is the compiled experiment's artifact: a deterministic
// per-cell table of phase-level charged stats, one row per measurement
// in execution order.
func render(def Definition, res spec.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dynamic experiment %s (%s)\n", def.Name, ID(def))
	if def.Description != "" {
		b.WriteString(def.Description)
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-24s %-14s %8s %12s %12s %8s %8s\n",
		"phase", "model", "n", "time", "ops", "steps", "maxcont")
	for _, cr := range res.Cells {
		if cr.Err != nil {
			continue
		}
		fmt.Fprintf(&b, "-- cell %s\n", cr.Cell)
		for _, m := range cr.Measurements {
			fmt.Fprintf(&b, "%-24s %-14s %8d %12d %12d %8d %8d\n",
				m.Group, m.Series, m.N, m.Stats.Time, m.Stats.Ops, m.Stats.Steps, m.Stats.MaxContention)
		}
	}
	return b.String()
}
