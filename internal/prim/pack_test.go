package prim

import (
	"slices"
	"testing"

	"lowcontend/internal/machine"
	"lowcontend/internal/xrand"
)

// packInput draws n flags, each nonzero with probability quarters/4 (so
// 0 and 4 give none and all), and n values.
func packInput(seed uint64, n, quarters int) (flags, vals []machine.Word) {
	rs := xrand.NewStream(seed)
	flags = make([]machine.Word, n)
	vals = make([]machine.Word, n)
	for i := range n {
		if rs.Intn(4) < quarters {
			flags[i] = machine.Word(rs.Uint64()>>1) | 1
		}
		vals[i] = machine.Word(rs.Uint64())
	}
	return flags, vals
}

// FuzzPackMatchesHost checks Pack against a plain host pack: lengths
// 0-300, flags set with probability 0, 1/4, 1/2, 3/4 or 1. The count
// and the whole n-cell output region (the packed values, then cells
// left zero) must match, with no EREW violation.
func FuzzPackMatchesHost(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(2))
	f.Add(uint64(2), uint16(1), uint8(4))
	f.Add(uint64(3), uint16(7), uint8(0))
	f.Add(uint64(4), uint16(64), uint8(1))
	f.Add(uint64(5), uint16(65), uint8(4))
	f.Add(uint64(6), uint16(300), uint8(3))
	f.Add(uint64(7), uint16(299), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, ln uint16, density uint8) {
		n := int(ln % 301)
		flags, vals := packInput(seed, n, int(density%5))
		var want []machine.Word
		for i, fl := range flags {
			if fl != 0 {
				want = append(want, vals[i])
			}
		}
		want = append(want, make([]machine.Word, n-len(want))...)

		m := machine.New(machine.EREW, 3*n+4*NextPow2(max(n, 1)))
		fb, vb, out := m.Alloc(n), m.Alloc(n), m.Alloc(n)
		m.Store(fb, flags)
		m.Store(vb, vals)
		k, err := Pack(m, fb, vb, out, n)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.LoadWords(out, n); k != n-countZero(flags) || !slices.Equal(got, want) {
			t.Fatalf("Pack of n=%d: count %d, out %v; host pack %v", n, k, got, want)
		}
	})
}

func countZero(ws []machine.Word) int {
	c := 0
	for _, w := range ws {
		if w == 0 {
			c++
		}
	}
	return c
}

// BenchmarkPack packs n = 2^16 cells with a quarter of the flags set at
// random, the shape of DistributiveSort's 4n-cell bucket array, on one
// EREW machine reused through Reset. ns/op-charged is host time per
// charged PRAM operation.
func BenchmarkPack(bb *testing.B) {
	const n = 1 << 16
	flags, vals := packInput(7, n, 1)
	m := machine.New(machine.EREW, 7*n)
	var ops int64
	for range bb.N {
		bb.StopTimer()
		m.Reset()
		fb, vb, out := m.Alloc(n), m.Alloc(n), m.Alloc(n)
		m.Store(fb, flags)
		m.Store(vb, vals)
		bb.StartTimer()
		if _, err := Pack(m, fb, vb, out, n); err != nil {
			bb.Fatal(err)
		}
		ops += m.Stats().Ops
	}
	bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(ops), "ns/op-charged")
}
