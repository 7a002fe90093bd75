package dynamic

import (
	"hash/fnv"
	"slices"
	"strings"

	"lowcontend/internal/compact"
	"lowcontend/internal/core"
	"lowcontend/internal/hashing"
	"lowcontend/internal/loadbalance"
	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/perm"
	"lowcontend/internal/prim"
	"lowcontend/internal/sortalg"
	"lowcontend/internal/xrand"
)

// Algorithm names. Each maps to one of the repo's phase kernels with
// the same input construction the builtin registry uses, so a dynamic
// phase charges the same costs a hand-written registry cell would.
const (
	algPermRandom   = "permutation.random"
	algPermScanDart = "permutation.scandart"
	algPermSorting  = "permutation.sorting"
	algCompactLin   = "compaction.linear"
	algCompactEREW  = "compaction.erew"
	algMulticompact = "multicompact"
	algSortDistrib  = "sort.distributive"
	algSortBitonic  = "sort.bitonic"
	algHashBuild    = "hash.build"
	algHashLookup   = "hash.lookup"
	algHashMember   = "hash.membership"
	algBalance      = "loadbalance"
	algBalanceEREW  = "loadbalance.erew"
)

// hashCap bounds the problem size hashing phases run at (hashing's
// table memory grows fastest; the builtin table1 applies the same cap).
// A hashing phase's measured N is min(n, hashCap).
const hashCap = 1 << 13

// fillSpec describes one array generator: its allowed parameters with
// their defaults.
type fillSpec struct {
	params map[string]int64
}

var fills = map[string]fillSpec{
	"distinct": {},
	"uniform":  {params: map[string]int64{"max": 1 << 40}},
	"labels":   {params: map[string]int64{"div": 8}},
}

func knownFills() string {
	names := make([]string, 0, len(fills))
	for k := range fills {
		names = append(names, k)
	}
	slices.Sort(names)
	return strings.Join(names, ", ")
}

// kernel describes one algorithm: which array fills it accepts (empty
// means it takes no array), its allowed parameters with defaults, and
// the runner. run returns the measured problem size (n except where a
// kernel caps it) so measurements report what actually ran.
type kernel struct {
	fills  []string
	params map[string]int64
	run    func(rt *phaseRT) (int, error)
}

var kernels = map[string]kernel{
	algPermRandom:   {run: runPerm(perm.Random)},
	algPermScanDart: {run: runPerm(perm.ScanDart)},
	algPermSorting:  {run: runPerm(perm.SortingBased)},
	algCompactLin: {
		params: map[string]int64{"k_div": 64},
		run: runCompact(func(m *machine.Machine, flags, vals, n, k int) error {
			_, err := compact.LinearCompact(m, flags, vals, n, k)
			return err
		}),
	},
	algCompactEREW: {
		params: map[string]int64{"k_div": 64},
		run: runCompact(func(m *machine.Machine, flags, vals, n, k int) error {
			_, err := compact.EREWCompact(m, flags, vals, n, k)
			return err
		}),
	},
	algMulticompact: {fills: []string{"labels"}, run: runMulticompact},
	algSortDistrib:  {fills: []string{"uniform"}, run: runDistributive},
	algSortBitonic:  {fills: []string{"uniform", "distinct"}, run: runBitonic},
	algHashBuild:    {fills: []string{"distinct"}, run: runHashBuild},
	algHashLookup:   {fills: []string{"distinct"}, run: runHashLookup},
	algHashMember:   {fills: []string{"distinct"}, run: runHashMembership},
	algBalance: {
		params: map[string]int64{"max_load": 32, "second_load": 16},
		run:    runBalance(false),
	},
	algBalanceEREW: {
		params: map[string]int64{"max_load": 32, "second_load": 16},
		run:    runBalance(true),
	},
}

// Algorithms returns the algorithm names in sorted order, for listings
// and error messages.
func Algorithms() []string {
	names := make([]string, 0, len(kernels))
	for k := range kernels {
		names = append(names, k)
	}
	slices.Sort(names)
	return names
}

func knownAlgorithms() string { return strings.Join(Algorithms(), ", ") }

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

// phaseRT is everything one kernel invocation needs: the session it
// charges, the cell's problem size and seed, the phase's canonical
// parameters, and the consumed array's declaration plus host data.
type phaseRT struct {
	st     *sessionState
	n      int
	seed   uint64
	params map[string]int64
	arr    *ArrayDecl            // nil for array-free algorithms
	host   func() []machine.Word // lazily materialized host data of arr
}

// device returns the phase's array device-resident, uploading the host
// data on the session's first reference.
func (rt *phaseRT) device() core.DeviceSlice {
	if d, ok := rt.st.arrays[rt.arr.Name]; ok {
		return d
	}
	d := rt.st.s.Upload(rt.host())
	rt.st.arrays[rt.arr.Name] = d
	return d
}

// hostArray materializes one declared array deterministically from the
// cell seed and the array's own name — never from execution order — so
// every session (and every parallelism level) sees identical inputs.
func hostArray(a ArrayDecl, n int, seed uint64) []machine.Word {
	h := fnv.New64a()
	h.Write([]byte(a.Name))
	s := xrand.NewStream(seed ^ h.Sum64())
	out := make([]machine.Word, n)
	switch a.Fill {
	case "distinct":
		seen := make(map[machine.Word]bool, n)
		for i := 0; i < n; {
			k := machine.Word(s.Uint64n(1 << 30))
			if !seen[k] {
				seen[k] = true
				out[i] = k
				i++
			}
		}
	case "uniform":
		max := uint64(a.Params["max"])
		for i := range out {
			out[i] = machine.Word(s.Uint64n(max))
		}
	case "labels":
		div := int(a.Params["div"])
		nsets := prim.Max(1, n/div)
		for i := range out {
			out[i] = machine.Word(s.Intn(nsets))
		}
	}
	return out
}

// --- kernel runners ---------------------------------------------------

func runPerm(f func(*machine.Machine, int) (int, error)) func(*phaseRT) (int, error) {
	return func(rt *phaseRT) (int, error) {
		if _, err := f(rt.st.s.Machine(), rt.n); err != nil {
			return 0, err
		}
		return rt.n, nil
	}
}

// runCompact mirrors the builtin compaction experiment's input: k
// marked cells (k = max(1, n/k_div)) scattered by a seeded permutation.
func runCompact(f func(m *machine.Machine, flags, vals, n, k int) error) func(*phaseRT) (int, error) {
	return func(rt *phaseRT) (int, error) {
		n := rt.n
		k := prim.Max(1, n/int(rt.params["k_div"]))
		s := xrand.NewStream(rt.seed)
		pm := s.Perm(n)
		flagVals := make([]machine.Word, n)
		cellVals := make([]machine.Word, n)
		for j := 0; j < k; j++ {
			flagVals[pm[j]] = 1
			cellVals[pm[j]] = machine.Word(j)
		}
		flags := rt.st.s.Upload(flagVals)
		vals := rt.st.s.Upload(cellVals)
		if err := f(rt.st.s.Machine(), flags.Base(), vals.Base(), n, k); err != nil {
			return 0, err
		}
		return n, nil
	}
}

func runMulticompact(rt *phaseRT) (int, error) {
	host := rt.host()
	labels := make([]int, len(host))
	for i, w := range host {
		labels[i] = int(w)
	}
	nsets := prim.Max(1, rt.n/int(rt.arr.Params["div"]))
	in, err := multicompact.BuildInput(rt.st.s.Machine(), labels, nsets)
	if err != nil {
		return 0, err
	}
	if _, err := multicompact.Run(rt.st.s.Machine(), in); err != nil {
		return 0, err
	}
	return rt.n, nil
}

func runDistributive(rt *phaseRT) (int, error) {
	keys := rt.device()
	if err := sortalg.DistributiveSort(rt.st.s.Machine(), keys.Base(), keys.Len(), machine.Word(rt.arr.Params["max"])); err != nil {
		return 0, err
	}
	return rt.n, nil
}

func runBitonic(rt *phaseRT) (int, error) {
	keys := rt.device()
	if err := prim.BitonicSortPadded(rt.st.s.Machine(), keys.Base(), -1, keys.Len()); err != nil {
		return 0, err
	}
	return rt.n, nil
}

// hashHost truncates the phase's array to the hashing cap.
func hashHost(rt *phaseRT) []machine.Word {
	host := rt.host()
	return host[:prim.Min(len(host), hashCap)]
}

func runHashBuild(rt *phaseRT) (int, error) {
	keys := hashHost(rt)
	kb := rt.st.s.Upload(keys)
	tb, err := hashing.Build(rt.st.s.Machine(), kb.Base(), kb.Len())
	if err != nil {
		return 0, err
	}
	rt.st.tables[rt.arr.Name] = tb
	return len(keys), nil
}

func runHashLookup(rt *phaseRT) (int, error) {
	// Validation guarantees an earlier hash.build on this array in this
	// session's model.
	tb := rt.st.tables[rt.arr.Name]
	queries := hashHost(rt)
	qb := rt.st.s.Upload(queries)
	ob := rt.st.s.Malloc(len(queries))
	if err := tb.Lookup(qb.Base(), ob.Base(), len(queries)); err != nil {
		return 0, err
	}
	return len(queries), nil
}

func runHashMembership(rt *phaseRT) (int, error) {
	keys := hashHost(rt)
	kb := rt.st.s.Upload(keys)
	qb := rt.st.s.Upload(keys)
	ob := rt.st.s.Malloc(len(keys))
	if err := hashing.EREWMembership(rt.st.s.Machine(), kb.Base(), len(keys), qb.Base(), ob.Base(), len(keys)); err != nil {
		return 0, err
	}
	return len(keys), nil
}

// runBalance mirrors the builtin load-balancing input: one processor
// holding max_load tasks and one holding second_load, everyone else
// idle — the small-L regime where the QRQW dispersal wins.
func runBalance(erew bool) func(*phaseRT) (int, error) {
	return func(rt *phaseRT) (int, error) {
		counts := loadbalance.TwoHeavy(rt.n, int(rt.params["max_load"]), int(rt.params["second_load"]))
		if erew {
			if _, err := loadbalance.EREWBalance(rt.st.s.Machine(), counts); err != nil {
				return 0, err
			}
		} else if _, err := rt.st.s.BalanceLoads(counts); err != nil {
			return 0, err
		}
		return rt.n, nil
	}
}
