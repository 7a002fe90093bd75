package exp

import (
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

// Algorithm names: the keys of Legs, and the algorithm names of the
// dynamic definition language.
const (
	PermRandom       = "permutation.random"
	PermScanDart     = "permutation.scandart"
	PermSorting      = "permutation.sorting"
	CompactLinear    = "compaction.linear"
	CompactEREW      = "compaction.erew"
	Multicompact     = "multicompact"
	SortDistributive = "sort.distributive"
	SortBitonic      = "sort.bitonic"
	HashBuild        = "hash.build"
	HashLookup       = "hash.lookup"
	HashMembership   = "hash.membership"
	Balance          = "loadbalance"
	BalanceEREW      = "loadbalance.erew"
)

// A Leg is one algorithm of the evaluation, run on a session from host
// inputs its caller generated. The builtin cells and the phases of
// dynamic definitions both run legs, so each algorithm's call, the
// inputs it reads and the session words it needs are declared once,
// here. A caller sizes a session by the largest Words of the legs it
// runs there.
type Leg struct {
	// Fills lists the array fills a dynamic phase may hand the leg
	// (none: it takes no array), and Params the phase parameters it
	// accepts, with their defaults. Builtin cells set Input directly.
	Fills  []string
	Params map[string]int64
	// Words is the session capacity the leg needs on in: what it has
	// allocated at its peak, its uploads included.
	Words func(in *Input) int
	// Run runs the leg on s and returns the problem size it measured:
	// in.N, or the capped size a hashing leg ran at.
	Run func(s *core.Session, in *Input) (int, error)
}

// Input is what a leg runs on: the problem size and the host data the
// caller generated, each array from a stream seed of its choosing. A
// leg reads only the fields it needs.
type Input struct {
	N int
	// Keys is the array the sort, hash and multicompact legs read:
	// keys, or labels below Sets. The hash legs use its first
	// min(len(Keys), hashCap) entries.
	Keys []machine.Word
	// Resident, when set, returns Keys as they already are on the
	// session, and the sort legs sort that copy in place; otherwise
	// they upload Keys.
	Resident func() core.DeviceSlice
	Max      machine.Word // sort.distributive: keys lie in [0, Max)
	Sets     int          // multicompact: labels lie in [0, Sets)
	// Flags marks K cells, and Vals holds their values, for compaction.
	Flags, Vals []machine.Word
	K           int
	Counts      []int // load balancing: tasks per processor
	// Table is the hash table hash.build leaves for hash.lookup.
	Table *hashing.Table
}

// hashCap bounds the size the hashing legs run at: hashing's memory
// grows fastest. Raising it is the one change that lifts the cap for
// the builtin table1 and for dynamic hashing phases alike.
const hashCap = 1 << 13

func hashN(n int) int { return min(n, hashCap) }

// Every leg's Words makes a session hold what the leg allocates at its
// peak, so it never grows mid-cell and a small cell does not lease a
// large session. The sizes come from the footprint record that
// TestGoldenFootprint pins (testdata/golden/footprint-default-seed1.txt),
// and TestBuiltinRequestsCoverFootprint checks each builtin request
// against its measured peak. Where an algorithm package can state its
// footprint exactly (perm.RandomWords, loadbalance.Words,
// compact.LinearCompactWords), the leg asks it; elsewhere the size is
// the measured words per element at powers of two plus slackWords for
// the fixed costs and the seed-to-seed spread of randomized runs. A
// non-power-of-two n pads some sorts to the next power of two, and a
// session asked for too little grows by doubling: correct, only larger.
const slackWords = 1024

// Legs is the leg table, keyed by algorithm name. It is read-only.
var Legs = map[string]Leg{
	PermRandom: {
		Words: func(in *Input) int { return perm.RandomWords(in.N) },
		Run:   permLeg(perm.Random),
	},
	PermScanDart: {
		Words: func(in *Input) int { return 13*in.N + slackWords },
		Run:   permLeg(perm.ScanDart),
	},
	// perm.SortingBased holds its output, keys, shadow copy and
	// duplicate flags (4n words) and the 2n-word reduction tree over
	// the flags; the bitonic sort of a power-of-two n runs in place.
	PermSorting: {
		Words: func(in *Input) int { return 6*in.N + slackWords },
		Run:   permLeg(perm.SortingBased),
	},
	CompactLinear: {
		Params: map[string]int64{"k_div": 64},
		Words:  func(in *Input) int { return 2*in.N + compact.LinearCompactWords(in.N, in.K) },
		Run:    compactLeg(compact.LinearCompact),
	},
	CompactEREW: {
		Params: map[string]int64{"k_div": 64},
		Words:  func(in *Input) int { return 6*in.N + in.K + slackWords },
		Run:    compactLeg(compact.EREWCompact),
	},
	Multicompact: {
		Fills: []string{"labels"},
		Words: func(in *Input) int { return 11*in.N + in.N/4 + slackWords },
		Run: func(s *core.Session, in *Input) (int, error) {
			labels := make([]int, len(in.Keys))
			for i, w := range in.Keys {
				labels[i] = int(w)
			}
			mi, err := multicompact.BuildInput(s.Machine(), labels, in.Sets)
			if err != nil {
				return 0, err
			}
			if _, err := multicompact.Run(s.Machine(), mi); err != nil {
				return 0, err
			}
			return in.N, nil
		},
	},
	SortDistributive: {
		Fills: []string{"uniform"},
		Words: func(in *Input) int { return 34*in.N + in.N/8 + slackWords },
		Run: func(s *core.Session, in *Input) (int, error) {
			keys := in.resident(s)
			return in.N, sortalg.DistributiveSort(s.Machine(), keys.Base(), keys.Len(), in.Max)
		},
	},
	SortBitonic: {
		Fills: []string{"uniform", "distinct"},
		Words: func(in *Input) int { return in.N + slackWords },
		Run: func(s *core.Session, in *Input) (int, error) {
			keys := in.resident(s)
			return in.N, prim.BitonicSortPadded(s.Machine(), keys.Base(), -1, keys.Len())
		},
	},
	// The table's retries make the build's peak vary by a few hundred
	// words across seeds. A lookup runs on the session that built its
	// table, so it states the same words.
	HashBuild: {
		Fills: []string{"distinct"},
		Words: hashTableWords,
		Run: func(s *core.Session, in *Input) (int, error) {
			keys := in.hashKeys()
			kb := s.Upload(keys)
			tb, err := hashing.Build(s.Machine(), kb.Base(), kb.Len())
			if err != nil {
				return 0, err
			}
			in.Table = tb
			return len(keys), nil
		},
	},
	HashLookup: {
		Fills: []string{"distinct"},
		Words: hashTableWords,
		Run: func(s *core.Session, in *Input) (int, error) {
			queries := in.hashKeys()
			qb := s.Upload(queries)
			ob := s.Malloc(len(queries))
			return len(queries), in.Table.Lookup(qb.Base(), ob.Base(), len(queries))
		},
	},
	HashMembership: {
		Fills: []string{"distinct"},
		Words: func(in *Input) int { return 13*hashN(in.N) + slackWords },
		Run: func(s *core.Session, in *Input) (int, error) {
			keys := in.hashKeys()
			kb := s.Upload(keys)
			qb := s.Upload(keys)
			ob := s.Malloc(len(keys))
			return len(keys), hashing.EREWMembership(s.Machine(), kb.Base(), len(keys), qb.Base(), ob.Base(), len(keys))
		},
	},
	Balance: {
		Params: map[string]int64{"max_load": 32, "second_load": 16},
		Words:  func(in *Input) int { return loadbalance.Words(in.Counts) },
		Run: func(s *core.Session, in *Input) (int, error) {
			_, err := s.BalanceLoads(in.Counts)
			return in.N, err
		},
	},
	BalanceEREW: {
		Params: map[string]int64{"max_load": 32, "second_load": 16},
		Words:  func(in *Input) int { return 4*in.N + slackWords },
		Run: func(s *core.Session, in *Input) (int, error) {
			_, err := loadbalance.EREWBalance(s.Machine(), in.Counts)
			return in.N, err
		},
	},
}

func permLeg(f func(*machine.Machine, int) (int, error)) func(*core.Session, *Input) (int, error) {
	return func(s *core.Session, in *Input) (int, error) {
		_, err := f(s.Machine(), in.N)
		return in.N, err
	}
}

func compactLeg[R any](f func(m *machine.Machine, flags, vals, n, k int) (R, error)) func(*core.Session, *Input) (int, error) {
	return func(s *core.Session, in *Input) (int, error) {
		flags := s.Upload(in.Flags)
		vals := s.Upload(in.Vals)
		_, err := f(s.Machine(), flags.Base(), vals.Base(), in.N, in.K)
		return in.N, err
	}
}

func hashTableWords(in *Input) int { return 101*hashN(in.N) + 2*slackWords }

// resident returns the keys on s: the caller's resident copy when it
// keeps one, else a fresh upload.
func (in *Input) resident(s *core.Session) core.DeviceSlice {
	if in.Resident != nil {
		return in.Resident()
	}
	return s.Upload(in.Keys)
}

func (in *Input) hashKeys() []machine.Word { return in.Keys[:hashN(len(in.Keys))] }

// --- input generators --------------------------------------------------
//
// Each generator draws from one stream seeded by its caller, so a cell
// or phase derives its inputs from its own seed, never from execution
// order.

// DistinctKeys returns n distinct keys drawn uniformly from [0, 2^30).
// Its first m keys are DistinctKeys(seed, m).
func DistinctKeys(seed uint64, n int) []machine.Word {
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

// UniformKeys returns n keys drawn uniformly from [0, bound).
func UniformKeys(seed uint64, n int, bound uint64) []machine.Word {
	s := xrand.NewStream(seed)
	out := make([]machine.Word, n)
	for i := range out {
		out[i] = machine.Word(s.Uint64n(bound))
	}
	return out
}

// Labels returns n labels drawn uniformly from [0, sets).
func Labels(seed uint64, n, sets int) []machine.Word {
	s := xrand.NewStream(seed)
	out := make([]machine.Word, n)
	for i := range out {
		out[i] = machine.Word(s.Intn(sets))
	}
	return out
}

// CompactionInput marks k of n cells, scattered by a seeded
// permutation: the j-th marked cell has flag 1 and value j.
func CompactionInput(seed uint64, n, k int) (flags, vals []machine.Word) {
	pm := xrand.NewStream(seed).Perm(n)
	flags = make([]machine.Word, n)
	vals = make([]machine.Word, n)
	for j := 0; j < k; j++ {
		flags[pm[j]] = 1
		vals[pm[j]] = machine.Word(j)
	}
	return flags, vals
}
