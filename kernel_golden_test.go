package lowcontend

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"lowcontend/internal/compact"
	"lowcontend/internal/exp"
	"lowcontend/internal/hashing"
	"lowcontend/internal/machine"
	"lowcontend/internal/perm"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// The kernel seed gate: the kernels whose host loops sort simulated
// cells by their random values (dart arrays, bucket counts, flags,
// staging occupancy) are pinned across seeds 1-16 at small and boundary
// sizes, where the artifact and charged-stats goldens pin one seed at
// the default sizes. Each case records the charged Stats and an FNV-64a
// digest of the kernel's output region. Regenerate with
//
//	go test -run TestGoldenKernelSeeds -update .

var kernelSizes = []int{1, 2, 3, 63, 64, 65, 1000, 1024}

const kernelSeeds = 16

// kernelRun runs one kernel on a fresh machine seeded with seed, drawing
// its input from in, and returns the words of its output region.
type kernelRun func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error)

// flagged stores n flags, each set with probability num/den (so 0/1 and
// 1/1 give none and all), and n random values; it returns their bases
// and how many flags are set.
func flagged(m *machine.Machine, n int, in *xrand.Stream, num, den int) (flags, vals, k int) {
	fw := make([]machine.Word, n)
	vw := make([]machine.Word, n)
	for i := range n {
		if in.Intn(den) < num {
			fw[i] = machine.Word(1 + in.Intn(3))
			k++
		}
		vw[i] = machine.Word(in.Uint64n(1 << 40))
	}
	flags, vals = m.Alloc(n), m.Alloc(n)
	m.Store(flags, fw)
	m.Store(vals, vw)
	return flags, vals, k
}

func permKernel(f func(*machine.Machine, int) (int, error)) kernelRun {
	return func(m *machine.Machine, n int, _ *xrand.Stream) ([]machine.Word, error) {
		out, err := f(m, n)
		if err != nil {
			return nil, err
		}
		return m.LoadWords(out, n), nil
	}
}

func packKernel(num, den int) kernelRun {
	return func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error) {
		flags, vals, _ := flagged(m, n, in, num, den)
		out := m.Alloc(n)
		t, err := prim.Pack(m, flags, vals, out, n)
		if err != nil {
			return nil, err
		}
		return append([]machine.Word{machine.Word(t)}, m.LoadWords(out, t)...), nil
	}
}

// scanKernel runs prim.PrefixSums over n random values, into a separate
// region or (same) in place, and returns the total and the prefixes.
func scanKernel(same bool) kernelRun {
	return func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error) {
		src := m.Alloc(n)
		m.Store(src, randomWords(in, n))
		dst := src
		if !same {
			dst = m.Alloc(n)
		}
		total, err := prim.PrefixSums(m, src, dst, n)
		if err != nil {
			return nil, err
		}
		return append([]machine.Word{total}, m.LoadWords(dst, n)...), nil
	}
}

// randomWords draws n values below 2^40 from in.
func randomWords(in *xrand.Stream, n int) []machine.Word {
	vw := make([]machine.Word, n)
	for i := range vw {
		vw[i] = machine.Word(in.Uint64n(1 << 40))
	}
	return vw
}

// TestGoldenKernelSeeds pins perm.Random, perm.ScanDart, prim.Pack,
// hashing.Build, compact.LinearCompact, prim.PrefixSums and prim.Reduce
// at every size of kernelSizes and seeds 1-16, with Pack's no-flag and
// all-flag edge cases, and the scan in place and under a unit-time scan.
func TestGoldenKernelSeeds(t *testing.T) {
	tests := []struct {
		name  string
		model machine.Model
		run   kernelRun
	}{
		{"perm.Random", machine.QRQW, permKernel(perm.Random)},
		{"perm.ScanDart", machine.QRQW, permKernel(perm.ScanDart)},
		{"prim.Pack", machine.QRQW, packKernel(1, 2)},
		{"prim.Pack/none", machine.QRQW, packKernel(0, 1)},
		{"prim.Pack/all", machine.QRQW, packKernel(1, 1)},
		{"hashing.Build", machine.QRQW, func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error) {
			keys := m.Alloc(n)
			m.Store(keys, exp.DistinctKeys(in.Uint64(), n))
			if _, err := hashing.Build(m, keys, n); err != nil {
				return nil, err
			}
			// The table's regions are all the build leaves allocated.
			return m.LoadWords(0, m.Allocated()), nil
		}},
		{"compact.LinearCompact", machine.QRQW, func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error) {
			flags, vals, k := flagged(m, n, in, 1, 4)
			r, err := compact.LinearCompact(m, flags, vals, n, k)
			if err != nil {
				return nil, err
			}
			return append(m.LoadWords(r.Pos, n), m.LoadWords(r.Out, r.OutLen)...), nil
		}},
		{"prim.PrefixSums", machine.QRQW, scanKernel(false)},
		{"prim.PrefixSums/same", machine.QRQW, scanKernel(true)},
		{"prim.PrefixSums/scan-qrqw", machine.ScanQRQW, scanKernel(false)},
		{"prim.PrefixSums/same/scan-qrqw", machine.ScanQRQW, scanKernel(true)},
		{"prim.Reduce", machine.QRQW, func(m *machine.Machine, n int, in *xrand.Stream) ([]machine.Word, error) {
			src := m.Alloc(n)
			m.Store(src, randomWords(in, n))
			out := m.Alloc(1)
			total, err := prim.Reduce(m, src, n, out)
			if err != nil {
				return nil, err
			}
			return []machine.Word{total, m.Word(out)}, nil
		}},
	}
	var sb strings.Builder
	for _, tc := range tests {
		for _, n := range kernelSizes {
			for seed := uint64(1); seed <= kernelSeeds; seed++ {
				m := machine.New(tc.model, 1<<12, machine.WithSeed(seed))
				out, err := tc.run(m, n, xrand.NewStream(seed))
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", tc.name, n, seed, err)
				}
				st, err := json.Marshal(m.Stats())
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for _, w := range out {
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(w)))
				}
				fmt.Fprintf(&sb, "%s | %d | %d | %s | %016x\n", tc.name, n, seed, st, h.Sum64())
			}
		}
	}
	checkGolden(t, "kernel-seeds.txt", sb.String())
}

// TestKernelSeedsPlaceInOneRound checks that the kernel seed gate holds
// the dart rounds' edge case in which every item of several is placed
// in the first round, so that round loses no dart and leaves no item:
// for each dart permutation some seed does so at n = 2 or 3. ScanDart
// then throws once; Random throws in every round, but its second throw
// charges only the n status reads.
func TestKernelSeedsPlaceInOneRound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		f     func(*machine.Machine, int) (int, error)
		throw string
		once  func(throws []machine.StepTrace, n int) bool
	}{
		{"perm.Random", perm.Random, "perm/throw", func(th []machine.StepTrace, n int) bool { return th[1].Ops == int64(n) }},
		{"perm.ScanDart", perm.ScanDart, "scandart/throw", func(th []machine.StepTrace, _ int) bool { return len(th) == 1 }},
	} {
		found := false
		for _, n := range kernelSizes[1:3] {
			for seed := uint64(1); seed <= kernelSeeds && !found; seed++ {
				m := machine.New(machine.QRQW, 1<<12, machine.WithSeed(seed), machine.WithTrace())
				if _, err := tc.f(m, n); err != nil {
					t.Fatal(err)
				}
				var throws []machine.StepTrace
				for _, st := range m.StepTraces() {
					if st.Label == tc.throw {
						throws = append(throws, st)
					}
				}
				found = tc.once(throws, n)
			}
		}
		if !found {
			t.Errorf("no %s case at n = 2 or 3 places every item in its first round", tc.name)
		}
	}
}
