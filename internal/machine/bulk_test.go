package machine

import (
	"fmt"
	"slices"
	"testing"

	"lowcontend/internal/xrand"
)

var allModels = []Model{EREW, CREW, QRQW, CRQW, CRCW, SIMDQRQW, ScanSIMDQRQW, FetchAdd, ScanQRQW}

// specOp is one descriptor-shaped access driving both the bulk and the
// scalar replay of a descriptor-only step. A bulkChargeC op charges
// fill local operations to each of n processors from procLo.
type specOp struct {
	kind            bulkKind // bulkRead / bulkWrite / bulkFill / bulkChargeC
	lo, n, stride   int      // stride -1: idx form (perProc 1)
	idx             []int
	vals            []Word
	fill            Word
	procLo, perProc int
}

func (op *specOp) nprocs() int { return (op.n + op.perProc - 1) / op.perProc }

func (op *specOp) addrAt(k int) int {
	if op.stride >= 1 {
		return op.lo + k*op.stride
	}
	return op.idx[k]
}

// runSpecBulk executes the ops as one Bulk step.
func runSpecBulk(m *Machine, p int, ops []specOp) error {
	b := m.Bulk(p, "prop")
	for i := range ops {
		op := &ops[i]
		switch {
		case op.kind == bulkChargeC:
			b.Compute(op.procLo, op.n, op.fill)
		case op.kind == bulkRead && op.stride == -1:
			b.Gather(op.idx, op.procLo)
		case op.kind == bulkRead:
			b.ReadRange(op.lo, op.n, op.stride, op.procLo, op.perProc)
		case op.kind == bulkFill:
			b.FillRange(op.lo, op.n, op.stride, op.procLo, op.perProc, op.fill)
		case op.stride == -1:
			b.Scatter(op.idx, op.procLo, op.vals)
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
			if op.kind == bulkChargeC {
				c.Compute(int(op.fill))
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
// ascending, colliding and hot-cell index lists (one hot cell repeated
// once per spanned processor, read or written), Compute charges, and
// repeats of other ops (so processors reach cells through several
// descriptors), with random processor mappings. Index lists carry one
// cell per processor, as the Gather and Scatter forms require.
func genSpec(rng *xrand.Stream, memN int) (int, []specOp) {
	p := 4 + int(rng.Uint64n(29))
	nops := 1 + int(rng.Uint64n(5))
	ops := make([]specOp, 0, nops)
	for len(ops) < nops {
		if len(ops) > 0 && rng.Uint64n(4) == 0 {
			// Repeat the cells of a suffix of another op's processors,
			// anywhere in issue order: processors then reach cells
			// through descriptors starting at different processors, and
			// for writes program order decides which value survives.
			op := ops[rng.Uint64n(uint64(len(ops)))]
			s := int(rng.Uint64n(uint64(op.nprocs())))
			k := min(op.n, s*op.perProc)
			op.procLo += s
			op.n -= k
			switch {
			case op.kind == bulkChargeC:
			case op.stride > 0:
				op.lo += k * op.stride
			default:
				op.idx = op.idx[k:]
			}
			op.fill = Word(rng.Uint64n(1 << 30))
			if op.vals != nil {
				op.vals = make([]Word, op.n)
				for j := range op.vals {
					op.vals[j] = Word(rng.Uint64n(1 << 30))
				}
			}
			ops = slices.Insert(ops, int(rng.Uint64n(uint64(len(ops)+1))), op)
			continue
		}
		var op specOp
		op.kind = bulkKind(rng.Uint64n(4))
		op.procLo = int(rng.Uint64n(uint64(p)))
		if op.kind == bulkChargeC {
			op.perProc = 1
			op.n = 1 + int(rng.Uint64n(uint64(p-op.procLo)))
			op.fill = Word(rng.Uint64n(4))
			ops = append(ops, op)
			continue
		}
		op.perProc = 1 + int(rng.Uint64n(3))
		maxCells := (p - op.procLo) * op.perProc
		if maxCells == 0 {
			continue
		}
		op.n = 1 + int(rng.Uint64n(uint64(min(24, maxCells))))
		form := rng.Uint64n(4)
		switch {
		case form == 0: // hot cell: one cell repeated per processor
			op.stride = -1
			op.perProc = 1
			op.n = min(op.n, p-op.procLo)
			op.idx = slices.Repeat([]int{int(rng.Uint64n(uint64(memN)))}, op.n)
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

// FuzzBulkMatchesScalar is the descriptor/scalar equivalence property:
// a random descriptor mix (genSpec, seeded by the fuzz input) must charge
// identical stats, raise identical violations, and leave identical
// memory and traces under all nine models as its element-by-element
// ParDo replay — with analytic settlement allowed, with every
// descriptor forced through expansion, and under hot-cell attribution, where the traces pin buildReplay's
// per-processor order.
func FuzzBulkMatchesScalar(f *testing.F) {
	seeds := xrand.NewStream(20260807)
	for range 60 {
		f.Add(seeds.Uint64())
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		const memN = 192
		p, ops := genSpec(xrand.NewStream(seed), memN)
		type outcome struct {
			st   Stats
			err  string
			mem  string
			desc string
		}
		run := func(model Model, hot bool, mode string) outcome {
			opts := []Option{WithSeed(11), WithTrace()}
			if hot {
				opts = append(opts, WithHotCells(4))
			}
			m := New(model, memN, opts...)
			m.noBulkFast = mode != "bulk"
			var err error
			if mode == "scalar" {
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
		for _, model := range allModels {
			for _, hot := range []bool{false, true} {
				ref := run(model, hot, "scalar")
				for _, mode := range []string{"bulk", "bulk-expanded"} {
					got := run(model, hot, mode)
					name := fmt.Sprintf("model %v hot %v %s", model, hot, mode)
					if got.err != ref.err {
						t.Fatalf("%s: err %q, want %q\nops: %+v", name, got.err, ref.err, ops)
					}
					if got.st != ref.st {
						t.Fatalf("%s: stats\n got %+v\nwant %+v\nops: %+v", name, got.st, ref.st, ops)
					}
					if got.desc != ref.desc {
						t.Fatalf("%s: traces\n got %s\nwant %s\nops: %+v", name, got.desc, ref.desc, ops)
					}
					if got.mem != ref.mem {
						t.Fatalf("%s: memory differs\nops: %+v", name, ops)
					}
				}
			}
		}
	})
}

// TestBulkCounters checks the descriptor hit counters: analytic settles
// count as descriptors, expansions as expanded.
func TestBulkCounters(t *testing.T) {
	m := New(QRQW, 64)
	b := m.Bulk(8, "x")
	b.FillRange(0, 8, 1, 0, 1, 7)
	b.FillRange(4, 8, 1, 0, 1, 9) // overlaps the first: both expand
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if ex := m.ExecStats(); ex.BulkDescriptors != 2 || ex.BulkExpanded != 2 {
		t.Fatalf("descriptors,expanded = %d,%d, want 2,2", ex.BulkDescriptors, ex.BulkExpanded)
	}
	b = m.Bulk(8, "y")
	b.FillRange(16, 8, 1, 0, 1, 1)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if ex := m.ExecStats(); ex.BulkDescriptors != 3 || ex.BulkExpanded != 2 {
		t.Fatalf("descriptors,expanded = %d,%d, want 3,2", ex.BulkDescriptors, ex.BulkExpanded)
	}
	m.ResetStats()
	if ex := m.ExecStats(); ex.BulkDescriptors != 0 || ex.BulkExpanded != 0 {
		t.Fatalf("descriptors,expanded after ResetStats = %d,%d, want 0,0", ex.BulkDescriptors, ex.BulkExpanded)
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
	mustPanic("stride-0 range", func() {
		b.FillRange(5, 4, 0, 0, 1, 1)
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

// TestBulkListChecks covers the recording-time validation of index
// lists: an out-of-range address panics whether the list ascends (its
// ends are checked) or not (every address is), a different list of the
// same length as one already walked in the step is walked on its own,
// and a list mutated between two steps is walked again.
func TestBulkListChecks(t *testing.T) {
	m := New(QRQW, 64)
	vals := []Word{1, 2, 3}
	wantPanic := func(name, want string, f func()) {
		t.Helper()
		if msg := panicMsg(f); msg != want {
			t.Errorf("%s: panic %q, want %q", name, msg, want)
		}
	}

	b := m.Bulk(4, "range")
	wantPanic("ascending list", "machine: address 64 out of range 0..64", func() { b.Gather([]int{0, 4, 64}, 0) })
	wantPanic("unsorted list", "machine: address -1 out of range 0..64", func() { b.Scatter([]int{3, -1, 2}, 0, vals) })
	_ = b.Commit()

	pos := []int{0, 1, 4}
	b = m.Bulk(4, "shared")
	b.Gather(pos, 0)
	b.Scatter(pos, 0, vals)
	wantPanic("second list", "machine: address 70 out of range 0..64", func() { b.Gather([]int{0, 1, 70}, 0) })
	_ = b.Commit()

	b = m.Bulk(4, "before")
	b.Scatter(pos, 0, vals)
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	pos[2] = 70
	b = m.Bulk(4, "after")
	wantPanic("mutated list", "machine: address 70 out of range 0..64", func() { b.Scatter(pos, 0, vals) })
	_ = b.Commit()
}

// TestBulkDescsOverlap issues two descriptors of one kind in one step
// and checks the settlement decision for each of descsOverlap's proofs
// — disjoint intervals, one stride in different residue classes, and
// the merge scan of two sorted lists — and for the pairs it reports as
// overlapping without a proof. Descriptors whose cells may meet must
// both expand, and disjoint ones must not. Either way stats, traces,
// errors and memory (write arbitration included) must equal a scalar
// replay of the same accesses.
func TestBulkDescsOverlap(t *testing.T) {
	const memN = 64
	rng := func(kind bulkKind, lo, n, stride int) specOp {
		op := specOp{kind: kind, lo: lo, n: n, stride: stride, perProc: 1}
		if kind == bulkWrite {
			op.vals = make([]Word, n)
			for k := range op.vals {
				op.vals[k] = Word(100*lo + k + 1)
			}
		}
		return op
	}
	list := func(kind bulkKind, idx ...int) specOp {
		op := rng(kind, idx[0], len(idx), -1)
		op.idx = idx
		return op
	}
	for _, c := range []struct {
		name     string
		a, b     specOp
		expanded int64
	}{
		{"disjoint ranges", rng(bulkRead, 0, 4, 1), rng(bulkRead, 10, 4, 1), 0},
		{"disjoint lists", list(bulkWrite, 0, 3, 5), list(bulkWrite, 6, 9), 0},
		{"one stride, two residues", rng(bulkWrite, 0, 8, 2), rng(bulkWrite, 1, 8, 2), 0},
		{"one stride, one residue", rng(bulkWrite, 0, 8, 2), rng(bulkWrite, 4, 8, 2), 2},
		{"two strides", rng(bulkRead, 0, 8, 2), rng(bulkRead, 1, 5, 3), 2},
		{"interleaved sorted lists", list(bulkWrite, 0, 2, 4, 6), list(bulkWrite, 1, 3, 5, 7), 0},
		{"sorted lists sharing a cell", list(bulkRead, 0, 2, 4), list(bulkRead, 1, 4, 7), 2},
		{"unsorted list", list(bulkWrite, 4, 0, 8), list(bulkWrite, 1, 3, 5), 2},
		{"list against a range", list(bulkRead, 0, 3), rng(bulkRead, 1, 2, 1), 2},
	} {
		ops := []specOp{c.a, c.b}
		for _, model := range []Model{EREW, QRQW, CRCW} {
			name := fmt.Sprintf("%s/%v", c.name, model)
			type outcome struct {
				st         Stats
				err, trace string
				mem        string
			}
			run := func(scalar bool) outcome {
				m := New(model, memN, WithTrace())
				var err error
				if scalar {
					err = runSpecScalar(m, 8, ops)
				} else {
					err = runSpecBulk(m, 8, ops)
					if ex := m.ExecStats(); ex.BulkDescriptors != 2 || ex.BulkExpanded != c.expanded {
						t.Errorf("%s: descriptors,expanded = %d,%d, want 2,%d",
							name, ex.BulkDescriptors, ex.BulkExpanded, c.expanded)
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
