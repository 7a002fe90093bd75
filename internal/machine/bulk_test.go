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
// fill local operations to each of n processors from procLo. A decl
// read is declared without copying its values (DeclareRead,
// DeclareGather). An inPlace write (stride 1) stores inPlaceVal of each
// cell's beginning-of-step value and vals[k] through WriteInPlace.
type specOp struct {
	kind            bulkKind // bulkRead / bulkWrite / bulkFill / bulkChargeC
	lo, n, stride   int      // stride -1: idx form (perProc 1)
	idx             []int
	vals            []Word
	fill            Word
	procLo, perProc int
	decl, inPlace   bool
}

// inPlaceVal is the value an inPlace spec write stores over old.
func inPlaceVal(old, v Word) Word { return 3*old + v }

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
		case op.kind == bulkRead && op.stride == -1 && op.decl:
			b.DeclareGather(op.idx, op.procLo)
		case op.kind == bulkRead && op.stride == -1:
			b.Gather(op.idx, op.procLo)
		case op.kind == bulkRead && op.decl:
			b.DeclareRead(op.lo, op.n, op.stride, op.procLo, op.perProc)
		case op.kind == bulkRead:
			b.ReadRange(op.lo, op.n, op.stride, op.procLo, op.perProc)
		case op.inPlace:
			cells := b.WriteInPlace(op.lo, op.n, op.procLo, op.perProc)
			for k, old := range cells {
				cells[k] = inPlaceVal(old, op.vals[k])
			}
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

// runSpecScalar replays the same ops element by element in a ParDo. An
// inPlace write takes the cell's old value from the host (uncharged):
// writes apply only after the bodies run.
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
					v := op.vals[k]
					if op.inPlace {
						v = inPlaceVal(m.Word(a), v)
					}
					c.Write(a, v)
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
// cell per processor, as the Gather and Scatter forms require. Then
// some reads become declarations, and some write and fill ranges become
// stride-1 in-place writes where that meets no other write, some of
// them with a read of their own cells added to the step.
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
	for i := 0; i < len(ops); i++ {
		op := &ops[i]
		switch {
		case op.kind == bulkRead:
			op.decl = rng.Uint64n(2) == 0
		case op.kind != bulkChargeC && op.stride >= 1 && !op.inPlace && rng.Uint64n(2) == 0:
			// A write or fill range, recast as a stride-1 write.
			was := *op
			op.kind, op.stride, op.inPlace = bulkWrite, 1, true
			if op.vals == nil {
				op.vals = make([]Word, op.n)
				for k := range op.vals {
					op.vals[k] = Word(rng.Uint64n(1 << 30))
				}
			}
			if meetsWrite(ops, i) {
				*op = was
				continue
			}
			if rng.Uint64n(2) == 0 {
				rd := specOp{kind: bulkRead, lo: op.lo, n: op.n, stride: 1,
					procLo: int(rng.Uint64n(uint64(p))), perProc: op.perProc}
				rd.procLo = min(rd.procLo, p-rd.nprocs())
				if rd.procLo >= 0 {
					ops = slices.Insert(ops, int(rng.Uint64n(uint64(len(ops)+1))), rd)
				}
			}
		}
	}
	return p, ops
}

// meetsWrite reports whether the cells of ops[i] meet those of another
// write op.
func meetsWrite(ops []specOp, i int) bool {
	for j := range ops {
		if j == i || ops[j].kind == bulkRead || ops[j].kind == bulkChargeC {
			continue
		}
		for k := range ops[i].n {
			for l := range ops[j].n {
				if ops[i].addrAt(k) == ops[j].addrAt(l) {
					return true
				}
			}
		}
	}
	return false
}

// fuzzBulkSeed seeds the stream that draws FuzzBulkMatchesScalar's
// fuzzBulkSeeds corpus entries.
const (
	fuzzBulkSeed  = 20260807
	fuzzBulkSeeds = 60
)

// FuzzBulkMatchesScalar is the descriptor/scalar equivalence property:
// a random descriptor mix (genSpec, seeded by the fuzz input) must charge
// identical stats, raise identical violations, and leave identical
// memory and traces under all nine models as its element-by-element
// ParDo replay — with analytic settlement allowed, with every
// descriptor forced through expansion, and under hot-cell attribution, where the traces pin buildReplay's
// per-processor order.
func FuzzBulkMatchesScalar(f *testing.F) {
	seeds := xrand.NewStream(fuzzBulkSeed)
	for range fuzzBulkSeeds {
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

// TestGenSpecCoversInPlace checks that FuzzBulkMatchesScalar's seed
// corpus reaches the in-place forms: in-place writes, some of them
// under a read of their own cells, and read declarations.
func TestGenSpecCoversInPlace(t *testing.T) {
	seeds := xrand.NewStream(fuzzBulkSeed)
	var inPlace, overRead, decl int
	for range fuzzBulkSeeds {
		_, ops := genSpec(xrand.NewStream(seeds.Uint64()), 192)
		for i := range ops {
			w := &ops[i]
			decl += b2i(w.decl)
			if !w.inPlace {
				continue
			}
			inPlace++
			for j := range ops {
				if r := &ops[j]; r.kind == bulkRead && r.stride == 1 && r.lo == w.lo && r.n == w.n {
					overRead++
					break
				}
			}
		}
	}
	if inPlace < 5 || overRead < 2 || decl < 5 {
		t.Errorf("seed corpus has %d in-place writes, %d under a read of their cells, %d read declarations; want at least 5, 2, 5",
			inPlace, overRead, decl)
	}
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

// TestBulkReplayRuns pins buildReplay's run-wise expansion against the
// scalar replay. Each case staggers descriptors so the expansion meets
// runs spanned by one descriptor of a kind (appended whole) and runs
// spanned by two or more (interleaved processor by processor, with the
// dedupe): a processor reading one cell through two descriptors, and
// one cell written through two descriptors from different processors
// (the higher one wins) and from one processor (the later descriptor
// wins). In-place writes expand with the values they stored, under
// reads of their own cells and beside writes whose intervals meet
// theirs. Every case runs under all nine models, with hot cells off and
// on, settled analytically where it can be and with every descriptor
// expanded.
func TestBulkReplayRuns(t *testing.T) {
	const memN, p = 64, 16
	ascending := func(lo, n, stride int) []int {
		idx := make([]int, n)
		for k := range idx {
			idx[k] = lo + k*stride
		}
		return idx
	}
	vals := func(n int, base Word) []Word {
		v := make([]Word, n)
		for k := range v {
			v[k] = base + Word(k)
		}
		return v
	}
	read := func(lo, n, stride, procLo, perProc int) specOp {
		return specOp{kind: bulkRead, lo: lo, n: n, stride: stride, procLo: procLo, perProc: perProc}
	}
	gather := func(procLo int, idx ...int) specOp {
		return specOp{kind: bulkRead, n: len(idx), stride: -1, idx: idx, procLo: procLo, perProc: 1}
	}
	write := func(lo, n, stride, procLo, perProc int, base Word) specOp {
		return specOp{kind: bulkWrite, lo: lo, n: n, stride: stride, procLo: procLo, perProc: perProc, vals: vals(n, base)}
	}
	scatter := func(procLo int, base Word, idx ...int) specOp {
		return specOp{kind: bulkWrite, n: len(idx), stride: -1, idx: idx, procLo: procLo, perProc: 1, vals: vals(len(idx), base)}
	}
	fill := func(lo, n, procLo int, v Word) specOp {
		return specOp{kind: bulkFill, lo: lo, n: n, stride: 1, procLo: procLo, perProc: 1, fill: v}
	}
	inPlace := func(lo, n, procLo, perProc int, base Word) specOp {
		op := write(lo, n, 1, procLo, perProc, base)
		op.inPlace = true
		return op
	}
	decl := func(op specOp) specOp {
		op.decl = true
		return op
	}
	for _, c := range []struct {
		name string
		ops  []specOp
	}{
		// Runs [0,4) one list, [4,8) two, [8,12) one range: the list is
		// unsorted, so it always expands, and the range meets it.
		{"reads one, two, one", []specOp{
			gather(0, 9, 3, 40, 12, 7, 30, 2, 21),
			read(20, 8, 1, 4, 1),
		}},
		// Processor 3 reads cell 3 through both descriptors (one entry),
		// processors 4 and 5 read two cells each from the range.
		{"read dedupe", []specOp{
			read(0, 12, 1, 0, 2),
			gather(1, 50, 40, 3, 60, 11, 1),
		}},
		// A run of one write descriptor, then three at once, then one:
		// cell 7 is written by processors 0 and 2 (2 wins), cell 30 by
		// processor 5 twice (the fill, issued last, wins), and the
		// later-issued scatter starts at an earlier processor.
		{"writers of one cell", []specOp{
			write(7, 6, 1, 2, 2, 100),
			scatter(0, 200, 7, 44, 8, 9, 31, 30, 33),
			fill(30, 1, 5, 999),
			scatter(1, 300, 50, 51, 52),
		}},
		// Reads and writes interleave on the same processors: each
		// kind's runs are its own.
		{"mixed kinds", []specOp{
			gather(2, ascending(10, 6, 3)...),
			scatter(0, 400, 20, 5, 20, 6, 21, 5, 22),
			read(10, 9, 3, 6, 1),
			write(5, 4, 16, 8, 1, 500),
			scatter(9, 600, 5, 21, 37),
		}},
		// A hot cell read and written from a staggered span, under a
		// range spanning the whole step.
		{"hot cell under a range", []specOp{
			read(0, 32, 1, 0, 2),
			gather(3, 17, 17, 17, 17, 17, 17),
			scatter(5, 700, 17, 17, 17, 17, 17),
			write(32, 16, 2, 0, 1, 800),
		}},
		// An in-place write under a range read of all its cells, a
		// declared hot-cell read of one of them, and a scatter from
		// the same processors: runs of one and of several descriptors.
		{"in place under reads", []specOp{
			read(0, 24, 1, 0, 2),
			inPlace(8, 8, 2, 2, 900),
			decl(gather(4, 9, 9, 9)),
			scatter(0, 200, 40, 30, 41),
			decl(read(8, 8, 1, 2, 2)),
		}},
		// Writes whose intervals meet the in-place cells but share
		// none (a range of another stride, an unsorted list), so all
		// of them expand.
		{"in place beside writers", []specOp{
			write(20, 6, 3, 0, 1, 100),
			inPlace(30, 2, 2, 1, 300),
			scatter(2, 500, 37, 10, 33),
			read(29, 4, 1, 1, 2),
		}},
	} {
		for _, model := range allModels {
			for _, hot := range []bool{false, true} {
				run := func(mode string) string {
					opts := []Option{WithSeed(3), WithTrace()}
					if hot {
						opts = append(opts, WithHotCells(4))
					}
					m := New(model, memN, opts...)
					for a := range memN {
						m.SetWord(a, Word(a*a))
					}
					m.noBulkFast = mode == "expanded"
					var err error
					if mode == "scalar" {
						err = runSpecScalar(m, p, c.ops)
					} else {
						err = runSpecBulk(m, p, c.ops)
					}
					checkDirtySound(t, m)
					return fmt.Sprintf("%v\n%+v\n%+v\n%v", err, m.Stats(), m.StepTraces(), m.LoadWords(0, memN))
				}
				want := run("scalar")
				for _, mode := range []string{"bulk", "expanded"} {
					if got := run(mode); got != want {
						t.Errorf("%s/%v/hot=%v/%s:\n got %s\nwant %s", c.name, model, hot, mode, got, want)
					}
				}
			}
		}
	}
}

// TestBulkInPlaceConflicts checks that Commit panics, naming the step,
// the in-place cells and the lowest shared cell, when an in-place write
// shares a cell with another write descriptor of its step, and that a
// write whose interval merely meets the in-place cells commits.
func TestBulkInPlaceConflicts(t *testing.T) {
	for _, c := range []struct {
		name, want string
		other      func(b *Bulk)
	}{
		{"range", `machine: step "range": in-place write of cells [8,15] shares cell 14 with another write descriptor`,
			func(b *Bulk) { b.WriteRange(14, 4, 1, 0, 1, make([]Word, 4)) }},
		{"strided fill", `machine: step "strided fill": in-place write of cells [8,15] shares cell 9 with another write descriptor`,
			func(b *Bulk) { b.FillRange(3, 5, 3, 0, 1, 7) }},
		{"unsorted list", `machine: step "unsorted list": in-place write of cells [8,15] shares cell 11 with another write descriptor`,
			func(b *Bulk) { b.Scatter([]int{40, 12, 11, 2}, 0, make([]Word, 4)) }},
		{"in place", `machine: step "in place": in-place write of cells [8,15] shares cell 15 with another write descriptor`,
			func(b *Bulk) { b.WriteInPlace(15, 3, 4, 1) }},
		{"stride over the cells", "", func(b *Bulk) { b.WriteRange(6, 3, 10, 0, 1, make([]Word, 3)) }},
		{"list around the cells", "", func(b *Bulk) { b.Scatter([]int{30, 2, 16, 7}, 0, make([]Word, 4)) }},
		{"read of the cells", "", func(b *Bulk) { b.ReadRange(0, 32, 1, 0, 4) }},
	} {
		m := New(QRQW, 64)
		msg := panicMsg(func() {
			b := m.Bulk(8, c.name)
			b.WriteInPlace(8, 8, 0, 2)
			c.other(b)
			if err := b.Commit(); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		})
		if msg != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, msg, c.want)
		}
	}
}

// BenchmarkBulkReplay measures the expansion of descriptors into the
// scalar buffers, settlement included, in host ns per expanded cell.
// scatter-gather is one unsorted Scatter and one unsorted Gather over
// p = 2^12 processors (runs spanned by one descriptor of each kind);
// lb-scan is shaped like one round of loadbalance's segmented scan:
// over a leading span of processors, gathers and scatters of
// overlapping ascending lists, one list gathered twice, and then two
// gathers over the rest.
func BenchmarkBulkReplay(bb *testing.B) {
	const p = 1 << 12
	rng := xrand.NewStream(5)
	random := func() []int {
		idx := make([]int, p)
		for k := range idx {
			idx[k] = int(rng.Uint64n(4 * p))
		}
		return idx
	}
	si, gi := random(), random()
	vals := make([]Word, p)
	for k := range vals {
		vals[k] = Word(k)
	}
	// The scan round at distance 1 with teams of 16: slot j reads its
	// left neighbour k = j-1, and about half the slots update.
	var updJ, updK, actJ, actK []int
	for j := 1; j < p; j++ {
		if j%16 == 0 {
			continue
		}
		if rng.Uint64n(2) == 0 {
			updJ, updK = append(updJ, j), append(updK, j-1)
		} else {
			actJ, actK = append(actJ, j), append(actK, j-1)
		}
	}
	at := func(base int, js []int) []int {
		out := make([]int, len(js))
		for t, j := range js {
			out[t] = base + j
		}
		return out
	}
	anch, ptr, ln := 0, p, 2*p
	aK, aJ := at(anch, updK), at(anch, updJ)
	pK, pJ, lK, lJ := at(ptr, updK), at(ptr, updJ), at(ln, updK), at(ln, updJ)
	cK, cJ := at(anch, actK), at(anch, actJ)
	nU := len(updJ)
	for _, c := range []struct {
		name  string
		step  func(b *Bulk)
		cells int
	}{
		{"scatter-gather", func(b *Bulk) {
			b.Scatter(si, 0, vals)
			b.Gather(gi, 0)
		}, 2 * p},
		{"lb-scan", func(b *Bulk) {
			b.Gather(aK, 0)
			b.Gather(aJ, 0)
			b.Gather(aK, 0)
			b.Scatter(aJ, 0, vals[:nU])
			b.Gather(pK, 0)
			b.Scatter(pJ, 0, vals[:nU])
			b.Gather(lK, 0)
			b.Scatter(lJ, 0, vals[:nU])
			b.Gather(cK, nU)
			b.Gather(cJ, nU)
		}, 9*nU + 2*len(actJ)},
	} {
		bb.Run(c.name, func(bb *testing.B) {
			m := New(QRQW, 4*p, WithSeed(1))
			defer m.Free()
			run := func() {
				b := m.Bulk(p, c.name)
				c.step(b)
				if err := b.Commit(); err != nil {
					bb.Fatal(err)
				}
			}
			run() // grow the step buffers before timing
			bb.ReportAllocs()
			bb.ResetTimer()
			for range bb.N {
				run()
			}
			bb.ReportMetric(float64(bb.Elapsed().Nanoseconds())/float64(bb.N)/float64(c.cells), "ns/cell")
		})
	}
}
