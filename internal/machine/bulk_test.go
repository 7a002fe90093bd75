package machine

import (
	"fmt"
	"strings"
	"testing"

	"lowcontend/internal/xrand"
)

var allModels = []Model{EREW, CREW, QRQW, CRQW, CRCW, SIMDQRQW, ScanSIMDQRQW, FetchAdd, ScanQRQW}

// specOp is one descriptor-shaped access driving both the bulk and the
// scalar replay of a descriptor-only step.
type specOp struct {
	kind            bulkKind // bulkRead / bulkWrite / bulkFill
	lo, n, stride   int      // stride -1: idx form, 0: broadcast form
	idx             []int
	vals            []Word
	fill            Word
	procLo, perProc int
}

func (op *specOp) nprocs() int { return (op.n + op.perProc - 1) / op.perProc }

func (op *specOp) addrAt(k int) int {
	switch {
	case op.stride >= 1:
		return op.lo + k*op.stride
	case op.stride == 0:
		return op.lo
	default:
		return op.idx[k]
	}
}

// runSpecBulk executes the ops as one Bulk step.
func runSpecBulk(m *Machine, p int, ops []specOp) error {
	b := m.Bulk(p, "prop")
	for i := range ops {
		op := &ops[i]
		switch {
		case op.kind == bulkRead && op.stride == 0:
			b.Broadcast(op.lo, op.n, op.procLo)
		case op.kind == bulkRead && op.stride == -1:
			b.Gather(op.idx, op.procLo, op.perProc)
		case op.kind == bulkRead:
			b.ReadRange(op.lo, op.n, op.stride, op.procLo, op.perProc)
		case op.kind == bulkFill:
			b.FillRange(op.lo, op.n, op.stride, op.procLo, op.perProc, op.fill)
		case op.stride == -1:
			b.Scatter(op.idx, op.procLo, op.perProc, op.vals)
		default:
			b.WriteRange(op.lo, op.n, op.stride, op.procLo, op.perProc, op.vals)
		}
	}
	return b.Commit()
}

// runSpecScalar replays the same ops element by element in a ParDo.
func runSpecScalar(m *Machine, p int, ops []specOp) error {
	return m.ParDoL(p, "prop", func(c *Ctx, i int) {
		for oi := range ops {
			op := &ops[oi]
			np := op.nprocs()
			if i < op.procLo || i >= op.procLo+np {
				continue
			}
			k0 := (i - op.procLo) * op.perProc
			k1 := min(op.n, k0+op.perProc)
			for k := k0; k < k1; k++ {
				a := op.addrAt(k)
				switch op.kind {
				case bulkRead:
					c.Read(a)
				case bulkFill:
					c.Write(a, op.fill)
				default:
					c.Write(a, op.vals[k])
				}
			}
		}
	})
}

// genSpec draws one random descriptor-only step: strided ranges,
// broadcasts, permutation and colliding index slices, with random
// processor mappings. Index lists use perProc 1 so the
// distinct-cells-per-processor contract holds by construction.
func genSpec(rng *xrand.Stream, memN int) (int, []specOp) {
	p := 4 + int(rng.Uint64n(29))
	nops := 1 + int(rng.Uint64n(5))
	ops := make([]specOp, 0, nops)
	for len(ops) < nops {
		var op specOp
		op.kind = bulkKind(rng.Uint64n(3))
		op.procLo = int(rng.Uint64n(uint64(p)))
		op.perProc = 1 + int(rng.Uint64n(3))
		maxCells := (p - op.procLo) * op.perProc
		if maxCells == 0 {
			continue
		}
		op.n = 1 + int(rng.Uint64n(uint64(min(24, maxCells))))
		form := rng.Uint64n(4)
		switch {
		case form == 0 && op.perProc == 1: // broadcast / hot cell
			op.stride = 0
			op.lo = int(rng.Uint64n(uint64(memN)))
		case form == 1 || form == 2: // strided range
			op.stride = 1 + int(rng.Uint64n(3))
			span := (op.n-1)*op.stride + 1
			if span > memN {
				continue
			}
			op.lo = int(rng.Uint64n(uint64(memN - span + 1)))
		default: // index slice: sorted sample or colliding permutation
			op.stride = -1
			op.perProc = 1
			op.n = min(op.n, p-op.procLo)
			op.idx = make([]int, op.n)
			if rng.Uint64n(2) == 0 {
				// Strictly ascending distinct sample.
				prev := -1
				for k := range op.idx {
					room := memN - (op.n - k) - prev
					prev += 1 + int(rng.Uint64n(uint64(max(1, room))))
					op.idx[k] = prev
				}
			} else {
				// Random, possibly colliding across processors.
				for k := range op.idx {
					op.idx[k] = int(rng.Uint64n(uint64(memN)))
				}
			}
		}
		if op.stride == -1 && op.kind == bulkFill {
			op.kind = bulkWrite // no index-list fill form
		}
		if op.kind == bulkFill {
			op.fill = Word(rng.Uint64n(1 << 30))
		} else if op.kind == bulkWrite {
			op.vals = make([]Word, op.n)
			for k := range op.vals {
				op.vals[k] = Word(rng.Uint64n(1 << 30))
			}
		}
		ops = append(ops, op)
	}
	return p, ops
}

// TestBulkPropertyAllModels is the descriptor/scalar equivalence
// property: random descriptor mixes must charge identical stats, raise
// identical violations, and leave identical memory under all nine
// models, with and without analytic settlement allowed.
func TestBulkPropertyAllModels(t *testing.T) {
	const memN = 192
	rng := xrand.NewStream(20260807)
	for trial := 0; trial < 60; trial++ {
		p, ops := genSpec(rng, memN)
		for _, model := range allModels {
			type outcome struct {
				st   Stats
				err  string
				mem  string
				desc string
			}
			run := func(mode int) outcome {
				m := New(model, memN, WithSeed(11), WithTrace())
				m.noBulkFast = mode == 1
				var err error
				if mode == 2 {
					err = runSpecScalar(m, p, ops)
				} else {
					err = runSpecBulk(m, p, ops)
				}
				checkDirtySound(t, m)
				o := outcome{st: m.Stats(), mem: fmt.Sprint(m.LoadWords(0, memN))}
				if err != nil {
					o.err = err.Error()
				}
				o.desc = fmt.Sprintf("%+v", m.StepTraces())
				return o
			}
			ref := run(2)
			for mode, name := range map[int]string{0: "bulk", 1: "bulk-expanded"} {
				got := run(mode)
				if got.err != ref.err {
					t.Fatalf("trial %d model %v %s: err %q, want %q\nops: %+v", trial, model, name, got.err, ref.err, ops)
				}
				if got.st != ref.st {
					t.Fatalf("trial %d model %v %s: stats\n got %+v\nwant %+v\nops: %+v", trial, model, name, got.st, ref.st, ops)
				}
				if got.desc != ref.desc {
					t.Fatalf("trial %d model %v %s: traces\n got %s\nwant %s\nops: %+v", trial, model, name, got.desc, ref.desc, ops)
				}
				if got.mem != ref.mem {
					t.Fatalf("trial %d model %v %s: memory differs\nops: %+v", trial, model, name, ops)
				}
			}
		}
	}
}

// ctxOp is one access a processor performs inside a ParDo body; bulk
// bodies use the range/gather forms, scalar bodies replay them
// element by element.
type ctxOp struct {
	kind          int // 0 ReadRange, 1 WriteRange, 2 Gather, 3 Scatter, 4 Read, 5 Write
	lo, n, stride int
	idx           []int
	vals          []Word
}

func genCtxOps(rng *xrand.Stream, p, memN int) [][]ctxOp {
	ops := make([][]ctxOp, p)
	for i := range ops {
		nop := 1 + int(rng.Uint64n(3))
		for o := 0; o < nop; o++ {
			var op ctxOp
			op.kind = int(rng.Uint64n(6))
			switch op.kind {
			case 0, 1:
				op.stride = 1 + int(rng.Uint64n(3))
				op.n = 1 + int(rng.Uint64n(12))
				span := (op.n-1)*op.stride + 1
				op.lo = int(rng.Uint64n(uint64(memN - span + 1)))
			case 2, 3:
				op.n = 1 + int(rng.Uint64n(8))
				op.idx = make([]int, op.n)
				if rng.Uint64n(2) == 0 {
					prev := -1
					for k := range op.idx {
						room := memN - (op.n - k) - prev
						prev += 1 + int(rng.Uint64n(uint64(max(1, room))))
						op.idx[k] = prev
					}
				} else {
					for k := range op.idx {
						op.idx[k] = int(rng.Uint64n(uint64(memN)))
					}
				}
			default:
				op.n = 1
				op.lo = int(rng.Uint64n(uint64(memN)))
			}
			if op.kind == 1 || op.kind == 3 || op.kind == 5 {
				op.vals = make([]Word, op.n)
				for k := range op.vals {
					op.vals[k] = Word(rng.Uint64n(1 << 30))
				}
			}
			ops[i] = append(ops[i], op)
		}
	}
	return ops
}

// TestBulkCtxPropertyAllModels checks the Ctx-level bulk forms against
// element-by-element replay: same-processor overlaps (dedupe, program-
// order overwrites), cross-processor contention, and value returns (the
// checksum write makes a wrong gathered value a memory diff).
func TestBulkCtxPropertyAllModels(t *testing.T) {
	const memN = 160
	rng := xrand.NewStream(77)
	for trial := 0; trial < 60; trial++ {
		p := 2 + int(rng.Uint64n(15))
		ops := genCtxOps(rng, p, memN)
		sum := memN // checksum cells live above the shared region
		for _, model := range allModels {
			run := func(bulk, noFast bool) (Stats, string, string) {
				m := New(model, memN+p, WithSeed(5), WithTrace())
				m.noBulkFast = noFast
				err := m.ParDoL(p, "ctxprop", func(c *Ctx, i int) {
					var acc Word
					for oi := range ops[i] {
						op := &ops[i][oi]
						switch op.kind {
						case 0:
							if bulk {
								for _, v := range c.ReadRange(op.lo, op.n, op.stride) {
									acc += v
								}
							} else {
								for k := 0; k < op.n; k++ {
									acc += c.Read(op.lo + k*op.stride)
								}
							}
						case 1:
							if bulk {
								c.WriteRange(op.lo, op.n, op.stride, op.vals)
							} else {
								for k := 0; k < op.n; k++ {
									c.Write(op.lo+k*op.stride, op.vals[k])
								}
							}
						case 2:
							if bulk {
								for _, v := range c.Gather(op.idx) {
									acc += v
								}
							} else {
								for _, a := range op.idx {
									acc += c.Read(a)
								}
							}
						case 3:
							if bulk {
								c.Scatter(op.idx, op.vals)
							} else {
								for k, a := range op.idx {
									c.Write(a, op.vals[k])
								}
							}
						case 4:
							acc += c.Read(op.lo)
						default:
							c.Write(op.lo, op.vals[0])
						}
					}
					c.Write(sum+i, acc)
				})
				checkDirtySound(t, m)
				errs := ""
				if err != nil {
					errs = err.Error()
				}
				return m.Stats(), errs, fmt.Sprint(m.LoadWords(0, memN+p)) + fmt.Sprintf("%+v", m.StepTraces())
			}
			refSt, refErr, refState := run(false, false)
			for _, noFast := range []bool{false, true} {
				st, errS, state := run(true, noFast)
				if errS != refErr || st != refSt || state != refState {
					t.Fatalf("trial %d model %v noBulkFast=%v:\n err %q want %q\n stats %+v want %+v\n state equal: %v",
						trial, model, noFast, errS, refErr, st, refSt, state == refState)
				}
			}
		}
	}
}

// TestBulkCounters checks the descriptor hit counters: analytic settles
// count as descriptors, expansions (settle-time and recording-time) as
// expanded.
func TestBulkCounters(t *testing.T) {
	m := New(QRQW, 64)
	b := m.Bulk(8, "x")
	b.FillRange(0, 8, 1, 0, 1, 7)
	b.FillRange(4, 8, 1, 0, 1, 9) // overlaps the first: both expand
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, e := m.BulkStats(); d != 2 || e != 2 {
		t.Fatalf("BulkStats = %d,%d, want 2,2", d, e)
	}
	b = m.Bulk(8, "y")
	b.FillRange(16, 8, 1, 0, 1, 1)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if d, e := m.BulkStats(); d != 3 || e != 2 {
		t.Fatalf("BulkStats = %d,%d, want 3,2", d, e)
	}
	// Ctx recording-time fallback: a range overlapping the processor's
	// own scalar read is an expanded descriptor.
	if err := m.ParDo(1, func(c *Ctx, i int) {
		c.Read(20)
		c.ReadRange(18, 6, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if d, e := m.BulkStats(); d != 4 || e != 3 {
		t.Fatalf("BulkStats = %d,%d, want 4,3", d, e)
	}
	m.ResetStats()
	if d, e := m.BulkStats(); d != 0 || e != 0 {
		t.Fatalf("BulkStats after ResetStats = %d,%d, want 0,0", d, e)
	}
}

// TestBulkGuards checks the builder's misuse panics.
func TestBulkGuards(t *testing.T) {
	m := New(QRQW, 64)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	b := m.Bulk(4, "a")
	mustPanic("nested Bulk", func() { m.Bulk(4, "b") })
	mustPanic("interleaved step", func() {
		_ = m.ParDo(1, func(c *Ctx, i int) {})
		_ = b.Commit()
	})
	b = m.Bulk(4, "c")
	mustPanic("descriptor past p", func() {
		b.FillRange(0, 8, 1, 0, 1, 1) // needs 8 processors, p = 4
		_ = b.Commit()
	})
	b = m.Bulk(4, "d")
	mustPanic("repeated cell within one processor", func() {
		b.Gather([]int{5, 5, 3, 1}, 0, 2)
	})
	_ = b.Commit()
}

// TestDedupeThreshold drives one processor far past dedupeMapThreshold
// with a repeating access pattern and checks that the map-backed dedupe
// records exactly the distinct cells, keeps program-order overwrite
// semantics, and charges every access.
func TestDedupeThreshold(t *testing.T) {
	const distinct = 3 * dedupeMapThreshold
	m := New(QRQW, distinct)
	if err := m.ParDo(1, func(c *Ctx, i int) {
		for rep := 0; rep < 3; rep++ {
			for k := 0; k < distinct; k++ {
				c.Read(k)
				c.Write(k, Word(100*rep+k))
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ReadOps != 3*distinct || st.WriteOps != 3*distinct {
		t.Fatalf("ops = %d/%d, want %d/%d", st.ReadOps, st.WriteOps, 3*distinct, 3*distinct)
	}
	if st.MaxContention != 1 {
		t.Fatalf("contention = %d, want 1 (per-processor dedupe)", st.MaxContention)
	}
	for k := 0; k < distinct; k++ {
		if got := m.Word(k); got != Word(200+k) {
			t.Fatalf("cell %d = %d, want %d (last overwrite wins)", k, got, 200+k)
		}
	}
}

// BenchmarkDedupe measures the per-access dedupe at small and large
// per-processor access counts (satellite: the map must not slow down
// the common small-k case it replaced the quadratic scan for).
func BenchmarkDedupe(bb *testing.B) {
	for _, k := range []int{4, 12, 64, 512} {
		bb.Run(fmt.Sprintf("k=%d", k), func(bb *testing.B) {
			m := New(QRQW, k)
			body := func(c *Ctx, i int) {
				for a := 0; a < k; a++ {
					c.Write(a, Word(a))
				}
			}
			bb.ResetTimer()
			for range bb.N {
				if err := m.ParDo(1, body); err != nil {
					bb.Fatal(err)
				}
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(bb.N)/float64(k), "ns/access")
		})
	}
}

// panicMsg runs f and returns its panic message ("" if it returned).
func panicMsg(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestBulkCertifiedListChecks covers the recording-time validation of
// base-relative certified lists: the residue certificate, the range of
// each descriptor's own ends even when the list's walk is memoised, a
// second list of the same length walked on its own, and the memo reset
// at the next Bulk.
func TestBulkCertifiedListChecks(t *testing.T) {
	m := New(QRQW, 64)
	vals := []Word{1, 2, 3}
	wantPanic := func(name, want string, f func()) {
		t.Helper()
		msg := panicMsg(f)
		if msg == "" {
			t.Errorf("%s: did not panic", name)
		} else if !strings.Contains(msg, want) {
			t.Errorf("%s: panic %q, want it to mention %q", name, msg, want)
		}
	}

	// Position 2 has residue 2 mod 4, outside [0, 2): the panic names
	// the absolute address 10+2.
	b := m.Bulk(4, "cert")
	wantPanic("gather certificate", "index 12 breaks", func() { b.GatherMod(10, []int{0, 1, 2}, 0, 1, 4, 2) })
	_ = b.Commit()
	b = m.Bulk(4, "cert")
	wantPanic("scatter certificate", "index 12 breaks", func() { b.ScatterMod(10, []int{0, 1, 2}, 0, 1, vals, 4, 2) })
	_ = b.Commit()

	// One list at several bases: the first descriptor walks it, the
	// later ones reuse the walk but still range-check their own ends.
	pos := []int{0, 4, 8}
	for _, c := range []struct {
		base int
		addr string
	}{{-1, "address -1 "}, {56, "address 64 "}} {
		b = m.Bulk(4, "range")
		b.GatherMod(0, pos, 0, 1, 4, 1)
		b.ScatterMod(1, pos, 0, 1, vals, 4, 1)
		wantPanic(fmt.Sprintf("gather at base %d", c.base), c.addr, func() { b.GatherMod(c.base, pos, 0, 1, 4, 1) })
		wantPanic(fmt.Sprintf("scatter at base %d", c.base), c.addr, func() { b.ScatterMod(c.base, pos, 0, 1, vals, 4, 1) })
		_ = b.Commit()
	}

	// A different list of the same length in the same step is walked
	// on its own and can fail where the first passed.
	b = m.Bulk(4, "second")
	b.GatherMod(0, []int{0, 1, 4}, 0, 1, 4, 2)
	wantPanic("second list", "index 6 breaks", func() { b.GatherMod(0, []int{0, 1, 6}, 0, 1, 4, 2) })
	_ = b.Commit()

	// A list mutated between two steps is walked again.
	pos = []int{0, 1, 4}
	b = m.Bulk(4, "before")
	b.ScatterMod(0, pos, 0, 1, vals, 4, 2)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	pos[2] = 7
	b = m.Bulk(4, "after")
	wantPanic("mutated list", "index 7 breaks", func() { b.ScatterMod(0, pos, 0, 1, vals, 4, 2) })
	_ = b.Commit()
}

// TestBulkOffsetListsOverlap issues two base-relative lists in one
// step and checks the settlement decision against the cells they
// really touch: lists whose cells meet — one list at bases b and b+1
// uncertified (modulus 1), with overlapping residue intervals and with
// equal residues, or two lists that differ only by their offsets — must
// both expand, and disjoint ones must not. Either way stats, traces,
// errors and memory (write arbitration included) must equal a scalar
// Ctx replay of the same accesses.
func TestBulkOffsetListsOverlap(t *testing.T) {
	const memN, base = 64, 7
	pos := []int{0, 1, 4, 5, 8, 9}
	// posM2 at base+2 names exactly pos's cells at base, while the raw
	// positions are disjoint: only the offsets reveal the overlap.
	posM2 := []int{-2, -1, 2, 3, 6, 7}
	va := []Word{10, 11, 12, 13, 14, 15}
	vb := []Word{20, 21, 22, 23, 24, 25}
	p := len(pos)
	for _, c := range []struct {
		posB             []int
		shift, mod, rlen int
		expanded         int64
	}{
		{pos, 1, 1, 1, 4},
		{pos, 1, 4, 2, 4},
		{pos, 4, 4, 2, 4},
		{posM2, 2, 1, 1, 4},
		{pos, 2, 1, 1, 0},
		{pos, 2, 4, 2, 0},
	} {
		b2 := base + c.shift
		for _, model := range []Model{EREW, QRQW, CRCW} {
			name := fmt.Sprintf("posB %v shift %d mod %d %v", c.posB, c.shift, c.mod, model)
			type outcome struct {
				st         Stats
				err, trace string
				mem        string
			}
			run := func(scalar bool) outcome {
				m := New(model, memN, WithTrace())
				var err error
				if scalar {
					err = m.ParDoL(p, "overlap", func(ctx *Ctx, k int) {
						ctx.Read(base + pos[k])
						ctx.Read(b2 + c.posB[k])
						ctx.Write(base+pos[k], va[k])
						ctx.Write(b2+c.posB[k], vb[k])
					})
				} else {
					b := m.Bulk(p, "overlap")
					b.GatherMod(base, pos, 0, 1, c.mod, c.rlen)
					b.GatherMod(b2, c.posB, 0, 1, c.mod, c.rlen)
					b.ScatterMod(base, pos, 0, 1, va, c.mod, c.rlen)
					b.ScatterMod(b2, c.posB, 0, 1, vb, c.mod, c.rlen)
					err = b.Commit()
					if d, e := m.BulkStats(); d != 4 || e != c.expanded {
						t.Errorf("%s: BulkStats = %d,%d, want 4,%d", name, d, e, c.expanded)
					}
				}
				o := outcome{st: m.Stats(), trace: fmt.Sprintf("%+v", m.StepTraces()), mem: fmt.Sprint(m.LoadWords(0, memN))}
				if err != nil {
					o.err = err.Error()
				}
				return o
			}
			if got, want := run(false), run(true); got != want {
				t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
			}
		}
	}
}
