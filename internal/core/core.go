// Package core is the public facade of the low-contention algorithm
// library: a Session API over the instrumented PRAM simulator in
// internal/machine, with one entry point per problem from Gibbons,
// Matias & Ramachandran, "Efficient Low-Contention Parallel Algorithms"
// (SPAA'94 / JCSS'96).
//
// Quickstart:
//
//	s := core.NewSession(core.QRQW, 1<<16)
//	p, err := s.RandomPermutation(1024)
//	fmt.Println(p, s.Stats())
//
// A Session owns one machine; host data moves on and off it through
// DeviceSlice (Upload/Download/Len), and the machine can be reused
// across runs with Reset or released with Close. Every algorithm is a
// Las Vegas randomized algorithm: results are always correct; the stated
// time bounds hold with high probability and the session's Stats record
// the charged cost of the actual run.
package core

import (
	"lowcontend/internal/hashing"
	"lowcontend/internal/loadbalance"
	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/perm"
	"lowcontend/internal/sortalg"
)

// Word re-exports the shared-memory cell type.
type Word = machine.Word

// Contention models.
const (
	EREW     = machine.EREW
	CREW     = machine.CREW
	QRQW     = machine.QRQW
	CRQW     = machine.CRQW
	CRCW     = machine.CRCW
	SIMDQRQW = machine.SIMDQRQW
)

// WithSeed re-exports the seeding option.
var WithSeed = machine.WithSeed

// WithWorkers re-exports the host-parallelism option.
var WithWorkers = machine.WithWorkers

// RandomPermutation generates a uniformly random permutation of [0, n)
// in O(lg n) time and linear work w.h.p. (Theorem 5.1) and returns it as
// a host slice.
func (s *Session) RandomPermutation(n int) ([]int, error) {
	base, err := perm.Random(s.m, n)
	if err != nil {
		return nil, err
	}
	return s.DeviceAt(base, n).DownloadInts(), nil
}

// RandomCyclicPermutation generates a uniformly random single-cycle
// permutation in O(sqrt(lg n)) time w.h.p. with n processors
// (Theorem 5.2), returned as a successor slice.
func (s *Session) RandomCyclicPermutation(n int) ([]int, error) {
	base, err := perm.CyclicFast(s.m, n)
	if err != nil {
		return nil, err
	}
	return s.DeviceAt(base, n).DownloadInts(), nil
}

// MultipleCompaction places n labeled items into private cells of
// per-set subarrays in O(lg n) time w.h.p. (Theorem 4.1). Returns, for
// each item, its cell index within the output region.
func (s *Session) MultipleCompaction(labels []int, nsets int) ([]int, error) {
	in, err := multicompact.BuildInput(s.m, labels, nsets)
	if err != nil {
		return nil, err
	}
	res, err := multicompact.Run(s.m, in)
	if err != nil {
		return nil, err
	}
	return s.DeviceAt(res.Pos, len(labels)).DownloadInts(), nil
}

// SortUniform sorts keys drawn uniformly from [0, maxKey) in O(lg n)
// time and linear work w.h.p. (Theorem 7.1), in place on the host slice.
func (s *Session) SortUniform(keys []Word, maxKey Word) error {
	d := s.Upload(keys)
	if err := sortalg.DistributiveSort(s.m, d.Base(), d.Len(), maxKey); err != nil {
		return err
	}
	d.DownloadInto(keys)
	return nil
}

// SampleSort sorts arbitrary keys with the sqrt(n)-sample sort of
// Section 7.2 (fat-tree splitter search), in place on the host slice.
func (s *Session) SampleSort(keys []Word) error {
	d := s.Upload(keys)
	if err := sortalg.SampleSortQRQW(s.m, d.Base(), d.Len()); err != nil {
		return err
	}
	d.DownloadInto(keys)
	return nil
}

// HashTable is a machine-resident two-level hash table (Theorem 6.1)
// bound to the session that built it.
type HashTable struct {
	s  *Session
	tb *hashing.Table
}

// BuildHashTable constructs a table for n distinct keys in O(lg n) time
// w.h.p.
func (s *Session) BuildHashTable(keys []Word) (*HashTable, error) {
	d := s.Upload(keys)
	tb, err := hashing.Build(s.m, d.Base(), d.Len())
	if err != nil {
		return nil, err
	}
	return &HashTable{s: s, tb: tb}, nil
}

// Lookup answers a batch of membership queries in O(lg n / lg lg n)
// time w.h.p.
func (h *HashTable) Lookup(queries []Word) ([]bool, error) {
	q := h.s.Upload(queries)
	o := h.s.Malloc(len(queries))
	if err := h.tb.Lookup(q.Base(), o.Base(), q.Len()); err != nil {
		return nil, err
	}
	flags := o.Download()
	out := make([]bool, len(flags))
	for i, v := range flags {
		out[i] = v != 0
	}
	return out, nil
}

// BalanceLoads redistributes tasks (given as per-processor counts) so
// that every processor holds O(1 + m/n) tasks, in O(lg L +
// sqrt(lg n) lg lg L) time w.h.p. (Theorem 3.4). Returns each
// processor's resolved task ranges.
func (s *Session) BalanceLoads(counts []int) ([][]loadbalance.TaskRange, error) {
	b, err := loadbalance.New(s.m, counts)
	if err != nil {
		return nil, err
	}
	if err := b.Run(); err != nil {
		return nil, err
	}
	return b.Assignment(), nil
}
