package prim

import (
	"fmt"
	"testing"

	"lowcontend/internal/machine"
	"lowcontend/internal/xrand"
)

// scalarBitonic is the element-wise reference of BitonicSort: per
// round, processor t < n/2 reads its pair (i, i+j), i the t-th index
// with bit j clear, and, when the pair is out of order for its run's
// direction, writes both keys and reads and writes both payload cells.
func scalarBitonic(m *machine.Machine, keys, vals, n int) error {
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			err := m.ParDoL(n, "bitonic/cmpx", func(c *machine.Ctx, t int) {
				if t >= n/2 {
					return
				}
				i := t/j*2*j + t%j
				l := i + j
				a, b := c.Read(keys+i), c.Read(keys+l)
				if (a > b) != (i&k == 0) {
					return
				}
				c.Write(keys+i, b)
				c.Write(keys+l, a)
				if vals >= 0 {
					va, vb := c.Read(vals+i), c.Read(vals+l)
					c.Write(vals+i, vb)
					c.Write(vals+l, va)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// scalarBitonicPadded is the element-wise reference of
// BitonicSortPadded: the same scratch allocation, a scalar padding load,
// the scalar network, and a scalar copy back.
func scalarBitonicPadded(m *machine.Machine, keys, vals, n int) error {
	if n <= 1 {
		return nil
	}
	np2 := NextPow2(n)
	if np2 == n {
		return scalarBitonic(m, keys, vals, n)
	}
	mark := m.Mark()
	defer m.Release(mark)
	k2 := m.Alloc(np2)
	v2 := -1
	if vals >= 0 {
		v2 = m.Alloc(np2)
	}
	const inf = 1<<62 - 1
	if err := m.ParDoL(np2, "bitonicpad/load", func(c *machine.Ctx, i int) {
		kv, vv := machine.Word(inf), machine.Word(0)
		if i < n {
			kv = c.Read(keys + i)
		}
		c.Write(k2+i, kv)
		if vals >= 0 {
			if i < n {
				vv = c.Read(vals + i)
			}
			c.Write(v2+i, vv)
		}
	}); err != nil {
		return err
	}
	if err := scalarBitonic(m, k2, v2, np2); err != nil {
		return err
	}
	copyBack := func(src, dst int) error {
		return m.ParDoL(n, "copy", func(c *machine.Ctx, i int) {
			c.Write(dst+i, c.Read(src+i))
		})
	}
	if err := copyBack(k2, keys); err != nil {
		return err
	}
	if vals >= 0 {
		return copyBack(v2, vals)
	}
	return nil
}

// bitonicOutcome is everything a network run leaves behind that the
// descriptor and scalar forms must agree on.
type bitonicOutcome struct {
	st    machine.Stats
	err   string
	mem   string
	trace string
}

// bitonicForms names the two entry points under test: BitonicSort on n
// cells and BitonicSortPadded on n/2+1.
var bitonicForms = []string{"sort", "padded"}

// runBitonicCase runs one form of the network, descriptor or scalar, on
// a fresh machine holding seeded keys (with duplicates) at base off and
// a payload at an unaligned base after it.
func runBitonicCase(model machine.Model, form string, n, off int, payload bool, seed uint64, scalar bool) bitonicOutcome {
	memN := 4*n + 2*off + 64
	m := machine.New(model, memN, machine.WithSeed(3), machine.WithTrace())
	m.Alloc(off)
	keys := m.Alloc(n)
	m.Alloc(off%3 + 1)
	vals := -1
	if payload {
		vals = m.Alloc(n)
	}
	rng := xrand.NewStream(seed)
	for i := 0; i < n; i++ {
		m.SetWord(keys+i, machine.Word(rng.Intn(n/2+1)))
		if payload {
			m.SetWord(vals+i, machine.Word(i))
		}
	}
	var err error
	switch {
	case form == "sort" && scalar:
		err = scalarBitonic(m, keys, vals, n)
	case form == "sort":
		err = BitonicSort(m, keys, vals, n)
	case scalar:
		err = scalarBitonicPadded(m, keys, vals, n/2+1)
	default:
		err = BitonicSortPadded(m, keys, vals, n/2+1)
	}
	o := bitonicOutcome{
		st:    m.Stats(),
		mem:   fmt.Sprint(m.LoadWords(0, memN)),
		trace: fmt.Sprintf("%+v", m.StepTraces()),
	}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// checkBitonicMatchesScalar asserts that every form's descriptor run
// matches its scalar reference exactly.
func checkBitonicMatchesScalar(t *testing.T, model machine.Model, n, off int, payload bool, seed uint64) {
	t.Helper()
	for _, form := range bitonicForms {
		want := runBitonicCase(model, form, n, off, payload, seed, true)
		got := runBitonicCase(model, form, n, off, payload, seed, false)
		name := fmt.Sprintf("%v/%s/n=%d/off=%d/payload=%v/seed=%d", model, form, n, off, payload, seed)
		if got.err != want.err {
			t.Fatalf("%s: err %q, want %q", name, got.err, want.err)
		}
		if got.st != want.st {
			t.Fatalf("%s: stats\n got %+v\nwant %+v", name, got.st, want.st)
		}
		if got.trace != want.trace {
			t.Fatalf("%s: traces\n got %s\nwant %s", name, got.trace, want.trace)
		}
		if got.mem != want.mem {
			t.Fatalf("%s: memory differs", name)
		}
	}
}

var bitonicModels = []machine.Model{machine.EREW, machine.QRQW, machine.CRCW}

// TestBitonicMatchesScalar is the descriptor/scalar equivalence of the
// bitonic network: BitonicSort and BitonicSortPadded charge the same
// stats, record the same step traces and leave the same memory as an
// element-wise ParDo replay of the same network.
func TestBitonicMatchesScalar(t *testing.T) {
	for _, model := range bitonicModels {
		for _, n := range []int{2, 8, 64, 1024} {
			for _, payload := range []bool{false, true} {
				for _, off := range []int{0, 5} {
					checkBitonicMatchesScalar(t, model, n, off, payload, uint64(n+off))
				}
			}
		}
	}
}

// FuzzBitonicMatchesScalar extends TestBitonicMatchesScalar to random
// inputs, sizes up to 2^7, models, payloads and base offsets.
func FuzzBitonicMatchesScalar(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(0), false, uint8(0))
	f.Add(uint64(2), uint8(5), uint8(1), true, uint8(3))
	f.Add(uint64(3), uint8(7), uint8(2), true, uint8(11))
	f.Add(uint64(4), uint8(1), uint8(0), true, uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, lgn, model uint8, payload bool, off uint8) {
		n := 1 << (lgn%7 + 1)
		checkBitonicMatchesScalar(t, bitonicModels[int(model)%len(bitonicModels)], n, int(off%16), payload, seed)
	})
}

// BenchmarkBitonicSort pins the network kernel: keys only and keys with
// a payload at n = 2^16 on one EREW machine reused through Reset, so
// allocation does not swamp the sort. ns/op-charged is host time per
// charged PRAM operation.
func BenchmarkBitonicSort(bb *testing.B) {
	const n = 1 << 16
	for _, payload := range []bool{false, true} {
		name := "keys"
		if payload {
			name = "kv"
		}
		bb.Run(name, func(bb *testing.B) {
			m := machine.New(machine.EREW, 2*n)
			in := make([]machine.Word, n)
			rng := xrand.NewStream(7)
			for i := range in {
				in[i] = machine.Word(rng.Intn(n))
			}
			var ops int64
			for range bb.N {
				bb.StopTimer()
				m.Reset()
				keys := m.Alloc(n)
				m.Store(keys, in)
				vals := -1
				if payload {
					vals = m.Alloc(n)
					m.Store(vals, in)
				}
				bb.StartTimer()
				if err := BitonicSort(m, keys, vals, n); err != nil {
					bb.Fatal(err)
				}
				ops += m.Stats().Ops
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(ops), "ns/op-charged")
		})
	}
}
