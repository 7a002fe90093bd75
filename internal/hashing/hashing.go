// Package hashing implements Section 6 of the paper: constructing a hash
// table for n distinct keys in O(lg n) time and linear work w.h.p. on a
// QRQW machine, and answering n membership queries in O(lg n / lg lg n)
// time.
//
// The construction follows Gil & Matias's oblivious-execution CRCW
// algorithm, adapted for low contention:
//
//   - The first-level function is drawn from the class R of
//     Dietzfelbinger & Meyer auf der Heide: h(x) = (g(x) + a_{f(x)}) mod
//     n with f in H^7_k (k = n^(3/7)), g in H^11_n, and k random offsets
//     a_j. Its buckets are O(lg n / lg lg n)-perfect w.h.p. (Fact 6.3).
//   - Lemma 6.4's duplication scheme makes evaluation low-contention:
//     the coefficient vectors of f and g are replicated n times, and
//     each a_j is replicated ~4n/k times; every evaluator reads its own
//     copy of f and g and a uniformly random copy of a_{f(x)}, so the
//     maximum read contention is O(lg n / lg lg n) w.h.p.
//   - Buckets are gathered into private subarrays with the multiple
//     compaction engine, and then O(lg lg n) oblivious allocation
//     iterations let each still-unplaced bucket claim a random memory
//     block of geometrically growing size x_t and try to map its keys
//     injectively with a random linear function from H^1_{x_t} (the
//     two-level FKS scheme with block size >= 2*b^2 succeeding with
//     probability >= 1/2).
//
// The EREW baseline for Table I answers batch membership by sorting keys
// and queries together (bitonic), Theta(lg^2 n) time.
package hashing

import (
	"errors"
	"math/bits"

	"lowcontend/internal/machine"
	"lowcontend/internal/multicompact"
	"lowcontend/internal/prim"
	"lowcontend/internal/xrand"
)

// q is a Mersenne prime comfortably above any 32-bit key universe.
const q = (1 << 61) - 1

// polyEval evaluates a polynomial with the given coefficients at x,
// modulo the prime q and then modulo s.
func polyEval(coeff []machine.Word, x, s machine.Word) machine.Word {
	xq := uint64(x) % q
	acc := uint64(0)
	for i := len(coeff) - 1; i >= 0; i-- {
		acc = (mulModQ(acc, xq) + uint64(coeff[i])) % q
	}
	return machine.Word(acc % uint64(s))
}

func mulMod(a, b uint64) uint64 { return mulModQ(a%q, b%q) }

// mulModQ is mulMod for a, b < q.
func mulModQ(a, b uint64) uint64 {
	// q = 2^61 - 1 is Mersenne: with x = hi*2^64 + lo, x mod q folds as
	// (x & q) + (x >> 61) since 2^61 = 1 (mod q). The product is below
	// 2^122, so x >> 61 is below q, the sum is below 2q, and one
	// subtraction reduces it.
	hi, lo := bits.Mul64(a, b)
	r := (lo & q) + (hi<<3 | lo>>61)
	if r >= q {
		r -= q
	}
	return r
}

// Table is a constructed two-level hash table resident on a machine.
type Table struct {
	m *machine.Machine
	n int

	d1, d2  int // polynomial degrees of f and g
	k       int // range of f = number of offsets a_j
	aCopies int

	fBase, gBase, aBase int // duplicated parameter regions
	// Per-bucket descriptors (n buckets).
	blockAddr, hashA, hashB, blockSize int
	blocks                             int // base of the second-level cells (key+1 or 0)
	blocksLen                          int
}

// ErrBuildFailed reports that construction did not converge (Las Vegas
// restarts exhausted — polynomially unlikely).
var ErrBuildFailed = errors.New("hashing: construction failed")

// Build constructs a hash table for the n distinct keys stored at base
// keys. O(lg n) time and near-linear work w.h.p. on a QRQW machine.
func Build(m *machine.Machine, keys, n int) (*Table, error) {
	if n <= 0 {
		panic("hashing: Build with non-positive n")
	}
	t := &Table{m: m, n: n, d1: 7, d2: 11}
	// k = n^(3/7), at least 2.
	t.k = prim.Max(2, ipow(n, 3, 7))
	t.aCopies = prim.Max(2, 4*n/t.k)

	// Select and duplicate the hash-function parameters (Lemma 6.4):
	// n copies of f's and g's coefficient vectors, aCopies copies of
	// each a_j. Selection is one step by k+2 processors; duplication is
	// O(lg n) binary broadcasting.
	fLen, gLen := t.d1+1, t.d2+1
	t.fBase = m.Alloc(n * fLen)
	t.gBase = m.Alloc(n * gLen)
	t.aBase = m.Alloc(t.k * t.aCopies)
	if err := m.ParDoL(t.k+2, "hash/select", func(c *machine.Ctx, i int) {
		rng := c.Rand()
		switch i {
		case 0:
			for j := 0; j < fLen; j++ {
				c.Write(t.fBase+j, machine.Word(rng.Uint64n(q)))
			}
		case 1:
			for j := 0; j < gLen; j++ {
				c.Write(t.gBase+j, machine.Word(rng.Uint64n(q)))
			}
		default:
			c.Write(t.aBase+(i-2)*t.aCopies, machine.Word(rng.Uint64n(uint64(n))))
		}
	}); err != nil {
		return nil, err
	}
	if err := duplicateRows(m, t.fBase, fLen, n); err != nil {
		return nil, err
	}
	if err := duplicateRows(m, t.gBase, gLen, n); err != nil {
		return nil, err
	}
	if err := duplicateEach(m, t.aBase, t.k, t.aCopies); err != nil {
		return nil, err
	}

	// Evaluate h for every key with the low-contention scheme and
	// partition into buckets via multiple compaction.
	labels := m.Alloc(n)
	if err := t.evalInto(keys, labels, n); err != nil {
		return nil, err
	}
	hostLabels := make([]int, n)
	for i := 0; i < n; i++ {
		hostLabels[i] = int(m.Word(labels + i))
	}
	in, err := multicompact.BuildInput(m, hostLabels, n)
	if err != nil {
		return nil, err
	}
	res, err := multicompact.Run(m, in)
	if err != nil {
		return nil, err
	}
	// Rewrite the bucket subarrays to hold keys rather than item ids.
	bkeys := m.Alloc(in.BLen)
	{
		b := m.Bulk(n, "hash/bucketkeys")
		pv := b.ReadRange(res.Pos, n, 1, 0, 1)
		kv := b.ReadRange(keys, n, 1, 0, 1)
		wIdx := make([]int, n)
		wv := b.Vals(n)
		for i := 0; i < n; i++ {
			wIdx[i] = bkeys + int(pv[i])
			wv[i] = kv[i] + 1
		}
		b.Scatter(wIdx, 0, wv)
		if err := b.Commit(); err != nil {
			return nil, err
		}
	}

	// Oblivious allocation iterations.
	t.blockAddr = m.Alloc(n)
	t.hashA = m.Alloc(n)
	t.hashB = m.Alloc(n)
	t.blockSize = m.Alloc(n)
	if err := prim.FillPar(m, t.blockAddr, n, -1); err != nil {
		return nil, err
	}
	// Empty buckets are trivially done (sentinel -2; lookups miss).
	{
		b := m.Bulk(n, "hash/empties")
		cv := b.ReadRange(in.Counts, n, 1, 0, 1)
		// Bucket counts are random: keep the empty buckets without
		// branching, writing each to the next slot (one spare).
		eIdx, k := make([]int, n+1), 0
		for j, v := range cv {
			eIdx[k] = t.blockAddr + j
			k += b2i(v == 0)
		}
		if k > 0 {
			ev := b.Vals(k)
			for j := range ev {
				ev[j] = -2
			}
			b.Scatter(eIdx[:k], 0, ev)
		}
		if err := b.Commit(); err != nil {
			return nil, err
		}
	}
	// Allocation iterations: block size x_t = 8*2^t grows geometrically
	// (a bucket of size b becomes eligible once x_t >= 2b^2, the FKS
	// threshold at which a random linear map is injective with constant
	// probability). Each iteration's arena holds ~8n cells; iterations
	// stop as soon as a periodic O(lg n) census finds every bucket
	// placed.
	ind := m.Alloc(n)
	orOut := m.Alloc(1)
	maxIt := 4*prim.Max(1, prim.CeilLog2(prim.Max(2, prim.CeilLog2(n+1)))) + 24
	for it := 0; it < maxIt; it++ {
		x := 1 << uint(prim.Min(it+3, prim.CeilLog2(n+1)+6))
		mt := prim.Max(32, 8*n/x)
		itMark := m.Mark()
		blockArena := m.Alloc(mt * x)
		claim := m.Alloc(mt)
		if err := t.allocationIteration(in, bkeys, blockArena, x, mt, claim); err != nil {
			return nil, err
		}
		// The claim scratch can be reclaimed, but the arena must stay:
		// move the watermark past the arena by re-allocating nothing
		// (the claim region sits after the arena, so only release it).
		_ = itMark
		if it%3 == 2 || it == maxIt-1 {
			b := m.Bulk(n, "hash/unplaced")
			bv := b.ReadRange(t.blockAddr, n, 1, 0, 1)
			iw := b.Vals(n)
			for j, v := range bv {
				if v == -1 {
					iw[j] = 1
				} else {
					iw[j] = 0
				}
			}
			b.WriteRange(ind, n, 1, 0, 1, iw)
			if err := b.Commit(); err != nil {
				return nil, err
			}
			left, err := prim.Reduce(m, ind, n, orOut)
			if err != nil {
				return nil, err
			}
			if left == 0 {
				return t, nil
			}
		}
	}
	return nil, ErrBuildFailed
}

// claimsPerBucket and trialsPerBucket tune one allocation iteration: a
// still-unplaced bucket stakes several random claims and attempts
// injective maps into up to two blocks it won, driving the per-iteration
// failure probability to a small constant (so O(lg lg n)-ish iterations
// finish all buckets w.h.p.).
const (
	claimsPerBucket = 4
	trialsPerBucket = 2
)

// placed is the allocation steps' skip predicate: a bucket whose block
// is assigned is done.
func placed(blk machine.Word) bool { return blk != -1 }

// allocationIteration lets every still-unplaced, eligible bucket
// (2*b^2 <= x) claim random blocks of size x at arena base and try
// random linear maps of its keys into blocks it won. Per active bucket:
// O(b) operations; contention O(lg n / lg lg n) w.h.p.
func (t *Table) allocationIteration(in multicompact.Input, bkeys, base, x, mt, claim int) error {
	m := t.m
	n := t.n
	throwStep := m.StepCount() + 1
	// Stake claims.
	if err := m.ParDoGuardL(n, "hash/claim", t.blockAddr, placed, func(c *machine.Ctx, j int, _ machine.Word) {
		cnt := int(c.Read(in.Counts + j))
		if 2*cnt*cnt > x {
			return // block size not yet eligible for this bucket
		}
		rng := c.Rand()
		for s := 0; s < claimsPerBucket; s++ {
			c.Write(claim+rng.Intn(mt), machine.Word(j)+1)
		}
	}); err != nil {
		return err
	}
	// Winners try to inject their keys with random linear functions
	// into (up to trialsPerBucket of) the blocks they won.
	return m.ParDoGuardL(n, "hash/inject", t.blockAddr, placed, func(c *machine.Ctx, j int, _ machine.Word) {
		cnt := int(c.Read(in.Counts + j))
		if 2*cnt*cnt > x {
			return
		}
		ptr := int(c.Read(in.Ptrs + j))
		rng := xrand.StreamFrom(c.SeedFor(throwStep, j))
		trials := 0
		for s := 0; s < claimsPerBucket && trials < trialsPerBucket; s++ {
			blk := rng.Intn(mt)
			if c.Read(claim+blk) != machine.Word(j)+1 {
				continue // lost this claim
			}
			trials++
			a := machine.Word(c.Rand().Uint64n(q-1)) + 1
			b := machine.Word(c.Rand().Uint64n(q))
			ok := true
			occ := make(map[int]bool, cnt)
			for s2 := 0; s2 < 4*cnt && ok; s2++ {
				v := c.Read(bkeys + ptr + s2)
				if v == 0 {
					continue
				}
				pos := int(linHash(a, b, v-1, machine.Word(x)))
				if occ[pos] {
					ok = false
				}
				occ[pos] = true
			}
			c.Compute(4 * cnt)
			if !ok {
				continue
			}
			for s2 := 0; s2 < 4*cnt; s2++ {
				v := c.Read(bkeys + ptr + s2)
				if v == 0 {
					continue
				}
				pos := int(linHash(a, b, v-1, machine.Word(x)))
				c.Write(base+blk*x+pos, v)
			}
			c.Write(t.blockAddr+j, machine.Word(base+blk*x))
			c.Write(t.blockSize+j, machine.Word(x))
			c.Write(t.hashA+j, a)
			c.Write(t.hashB+j, b)
			return
		}
	})
}

func linHash(a, b, x, s machine.Word) machine.Word {
	return machine.Word((mulMod(uint64(a), uint64(x)) + uint64(b)) % q % uint64(s))
}

// evalInto computes h(keys[i]) into dst[i] for all i with the
// low-contention duplication scheme of Lemma 6.4: processor i reads the
// i-th copies of f and g (exclusive) and a random copy of a_{f(x)}
// (contention O(lg n / lg lg n) w.h.p.).
func (t *Table) evalInto(keys, dst, cnt int) error {
	m := t.m
	fLen, gLen := t.d1+1, t.d2+1
	if cnt != t.n {
		// Uncommon shape (copy index wraps): keep the element-wise form.
		return m.ParDoL(cnt, "hash/eval", func(c *machine.Ctx, i int) {
			x := c.Read(keys + i)
			copyIdx := i % t.n
			fc := make([]machine.Word, fLen)
			for j := 0; j < fLen; j++ {
				fc[j] = c.Read(t.fBase + copyIdx*fLen + j)
			}
			gc := make([]machine.Word, gLen)
			for j := 0; j < gLen; j++ {
				gc[j] = c.Read(t.gBase + copyIdx*gLen + j)
			}
			c.Compute(fLen + gLen)
			fx := polyEval(fc, x, machine.Word(t.k))
			gx := polyEval(gc, x, machine.Word(t.n))
			aj := c.Read(t.aBase + int(fx)*t.aCopies + c.Rand().Intn(t.aCopies))
			c.Write(dst+i, (gx+aj)%machine.Word(t.n))
		})
	}
	// Processor i reads exactly the i-th parameter copies, so the f and g
	// reads are contiguous fLen- and gLen-cells-per-processor range
	// descriptors; only the a-copy read is a genuinely random gather (its
	// contention is the quantity Lemma 6.4 bounds).
	b := m.Bulk(cnt, "hash/eval")
	kv := b.ReadRange(keys, cnt, 1, 0, 1)
	fv := b.ReadRange(t.fBase, cnt*fLen, 1, 0, fLen)
	gv := b.ReadRange(t.gBase, cnt*gLen, 1, 0, gLen)
	b.Compute(0, cnt, int64(fLen+gLen))
	aIdx := make([]int, cnt)
	gxv := make([]machine.Word, cnt)
	for i := 0; i < cnt; i++ {
		fx := polyEval(fv[i*fLen:(i+1)*fLen], kv[i], machine.Word(t.k))
		gxv[i] = polyEval(gv[i*gLen:(i+1)*gLen], kv[i], machine.Word(t.n))
		rs := b.Rand(i)
		aIdx[i] = t.aBase + int(fx)*t.aCopies + rs.Intn(t.aCopies)
	}
	av := b.Gather(aIdx, 0)
	dv := b.Vals(cnt)
	for i := range dv {
		dv[i] = (gxv[i] + av[i]) % machine.Word(t.n)
	}
	b.WriteRange(dst, cnt, 1, 0, 1, dv)
	return b.Commit()
}

// Lookup answers cnt membership queries stored at base queries, writing
// 1/0 into the region at out. O(lg n / lg lg n) time and linear work
// w.h.p. for distinct keys.
func (tb *Table) Lookup(queries, out, cnt int) error {
	m := tb.m
	mark := m.Mark()
	defer m.Release(mark)
	lbl := m.Alloc(cnt)
	if err := tb.evalInto(queries, lbl, cnt); err != nil {
		return err
	}
	// Queries whose bucket has a block (8 ops) are relabeled to a leading
	// processor span, the empty-bucket misses (4 ops) to the span after
	// it; descriptor order within each class follows the scalar body.
	bk := m.Bulk(cnt, "hash/lookup")
	var hitI, missI []int
	for i := 0; i < cnt; i++ {
		j := int(m.Word(lbl + i))
		if m.Word(tb.blockAddr+j) < 0 {
			missI = append(missI, i)
		} else {
			hitI = append(hitI, i)
		}
	}
	at := func(base int, is []int) []int {
		o := make([]int, len(is))
		for t, i := range is {
			o[t] = base + i
		}
		return o
	}
	nH := len(hitI)
	if nH > 0 {
		qv := bk.Gather(at(queries, hitI), 0)
		lv := bk.Gather(at(lbl, hitI), 0)
		jIdx := make([]int, nH)
		for t, v := range lv {
			jIdx[t] = int(v)
		}
		addr := bk.Gather(at(tb.blockAddr, jIdx), 0)
		av := bk.Gather(at(tb.hashA, jIdx), 0)
		bv := bk.Gather(at(tb.hashB, jIdx), 0)
		sz := bk.Gather(at(tb.blockSize, jIdx), 0)
		cellIdx := make([]int, nH)
		for t := 0; t < nH; t++ {
			cellIdx[t] = int(addr[t]) + int(linHash(av[t], bv[t], qv[t], sz[t]))
		}
		cv := bk.Gather(cellIdx, 0)
		ov := bk.Vals(nH)
		for t := 0; t < nH; t++ {
			if cv[t] == qv[t]+1 {
				ov[t] = 1
			} else {
				ov[t] = 0
			}
		}
		bk.Scatter(at(out, hitI), 0, ov)
	}
	if nM := len(missI); nM > 0 {
		bk.Gather(at(queries, missI), nH)
		mlv := bk.Gather(at(lbl, missI), nH)
		mjIdx := make([]int, nM)
		for t, v := range mlv {
			mjIdx[t] = int(v)
		}
		bk.Gather(at(tb.blockAddr, mjIdx), nH)
		zv := bk.Vals(nM)
		for t := range zv {
			zv[t] = 0
		}
		bk.Scatter(at(out, missI), nH, zv)
	}
	return bk.Commit()
}

// duplicateRows replicates the row of `width` words at base into n rows
// by binary broadcasting: O(lg n) steps, O(n*width) operations.
func duplicateRows(m *machine.Machine, base, width, n int) error {
	for have := 1; have < n; have *= 2 {
		cnt := prim.Min(have, n-have)
		off := have
		b := m.Bulk(cnt*width, "hash/dup")
		b.WriteRange(base+off*width, cnt*width, 1, 0, 1,
			b.ReadRange(base, cnt*width, 1, 0, 1))
		if err := b.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// duplicateEach replicates, for each of k values stored at stride
// `copies` (the first slot of each group), the value into its whole
// group: O(lg copies) steps.
func duplicateEach(m *machine.Machine, base, k, copies int) error {
	for have := 1; have < copies; have *= 2 {
		cnt := prim.Min(have, copies-have)
		off := have
		// One read+write descriptor pair per group (k is small, n^(3/7)).
		b := m.Bulk(k*cnt, "hash/dupa")
		for grp := 0; grp < k; grp++ {
			b.WriteRange(base+grp*copies+off, cnt, 1, grp*cnt, 1,
				b.ReadRange(base+grp*copies, cnt, 1, grp*cnt, 1))
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ipow returns floor(n^(num/den)) crudely via floating point, clamped to
// at least 1.
func ipow(n, num, den int) int {
	v := 1
	for v+1 <= n {
		// (v+1)^den <= n^num ?
		lhs := pow64(v+1, den)
		rhs := pow64(n, num)
		if lhs > rhs {
			break
		}
		v++
	}
	return v
}

func pow64(b, e int) float64 {
	r := 1.0
	for i := 0; i < e; i++ {
		r *= float64(b)
	}
	return r
}

// EREWMembership is the zero-contention baseline: batch membership by
// sorting keys and queries together with the bitonic network and marking
// matches between neighbors. Theta(lg^2 n) time.
func EREWMembership(m *machine.Machine, keys, nKeys, queries, out, nQ int) error {
	total := nKeys + nQ
	mark := m.Mark()
	defer m.Release(mark)
	sk := m.Alloc(total)
	tag := m.Alloc(total) // -1 for a key, query index for a query
	{
		b := m.Bulk(total, "erewmember/load")
		if nKeys > 0 {
			b.WriteRange(sk, nKeys, 1, 0, 1, b.ReadRange(keys, nKeys, 1, 0, 1))
			tv := b.Vals(nKeys)
			for i := range tv {
				tv[i] = -1
			}
			b.WriteRange(tag, nKeys, 1, 0, 1, tv)
		}
		if nQ > 0 {
			b.WriteRange(sk+nKeys, nQ, 1, nKeys, 1, b.ReadRange(queries, nQ, 1, nKeys, 1))
			qt := b.Vals(nQ)
			for i := range qt {
				qt[i] = machine.Word(i)
			}
			b.WriteRange(tag+nKeys, nQ, 1, nKeys, 1, qt)
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	// Sort by (key, tag): keys sort before equal-valued queries because
	// tag -1 < query indexes; encode as composite to keep one key array.
	comp := m.Alloc(total)
	{
		b := m.Bulk(total, "erewmember/comp")
		sv := b.ReadRange(sk, total, 1, 0, 1)
		tv := b.ReadRange(tag, total, 1, 0, 1)
		cv := b.Vals(total)
		for i := range cv {
			cv[i] = sv[i]*machine.Word(2*total) + tv[i] + 1
		}
		b.WriteRange(comp, total, 1, 0, 1, cv)
		if err := b.Commit(); err != nil {
			return err
		}
	}
	if err := prim.BitonicSortPadded(m, comp, tag, total); err != nil {
		return err
	}
	// A query matches iff scanning left from it, the nearest cell with a
	// smaller composite-with-tag--1... simpler: a query at position p
	// matches iff some cell q <= p holds a key (tag -1) with the same
	// key value. Keys sort immediately before their equal queries, so a
	// doubling fill of "last key value seen" suffices.
	//
	// The steps below build their host index lists in four buffers
	// allocated once per call: positions in pos and rest, addresses in
	// two address buffers. Each step commits before the next refills
	// them, and within a step every list starts at its own element, so
	// the Bulk's walk reuse, which identifies a list by its first
	// element and length, matches only a list passed twice.
	pos, rest := make([]int, 0, total), make([]int, 0, total)
	addrA, addrB := make([]int, total), make([]int, total)
	// at writes base+i-delta for each i of is into dst, and returns it.
	at := func(dst []int, base, delta int, is []int) []int {
		dst = dst[:len(is)]
		for t, i := range is {
			dst[t] = base + i - delta
		}
		return dst
	}
	lastKey := m.Alloc(total)
	{
		// Key positions (3 ops) relabel to a leading processor span,
		// query positions (2 ops) follow.
		b := m.Bulk(total, "erewmember/seed")
		tv := b.ReadRange(tag, total, 1, 0, 1)
		keyP, qryP := pos, rest
		for i, v := range tv {
			if v < 0 {
				keyP = append(keyP, i)
			} else {
				qryP = append(qryP, i)
			}
		}
		nK := len(keyP)
		if nK > 0 {
			cvv := b.Gather(at(addrA, comp, 0, keyP), 0)
			lv := b.Vals(nK)
			for t := range lv {
				lv[t] = cvv[t] / machine.Word(2*total)
			}
			b.Scatter(at(addrB, lastKey, 0, keyP), 0, lv)
		}
		if len(qryP) > 0 {
			mv := b.Vals(len(qryP))
			for t := range mv {
				mv[t] = -1
			}
			b.Scatter(at(addrB[nK:], lastKey, 0, qryP), nK, mv)
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	shadow := m.Alloc(total)
	for d := 1; d < total; d *= 2 {
		{
			b := m.Bulk(total, "erewmember/pub")
			b.WriteRange(shadow, total, 1, 0, 1, b.ReadRange(lastKey, total, 1, 0, 1))
			if err := b.Commit(); err != nil {
				return err
			}
		}
		// Updating cells (4 ops) first, condition-only cells (2 ops) next.
		b := m.Bulk(total, "erewmember/fill")
		updJ, actJ := pos[:0], rest[:0]
		for i := d; i < total; i++ {
			if m.Word(shadow+i-d) > m.Word(lastKey+i) {
				updJ = append(updJ, i)
			} else {
				actJ = append(actJ, i)
			}
		}
		nU := len(updJ)
		if nU > 0 {
			sK := at(addrA, shadow, d, updJ)
			lJ := at(addrB, lastKey, 0, updJ)
			sv := b.Gather(sK, 0) // condition read of shadow+k
			b.Gather(lJ, 0)       // condition read of lastKey+i
			b.Gather(sK, 0)       // value read (scalar reads it again)
			b.Scatter(lJ, 0, sv)
		}
		if len(actJ) > 0 {
			b.Gather(at(addrA[nU:], shadow, d, actJ), nU)
			b.Gather(at(addrB[nU:], lastKey, 0, actJ), nU)
		}
		if err := b.Commit(); err != nil {
			return err
		}
	}
	// Emit: query positions (4 ops) relabel to a leading span; key
	// positions only read their tag.
	b := m.Bulk(total, "erewmember/emit")
	tv := b.ReadRange(tag, total, 1, 0, 1)
	qP := pos[:0]
	for i, v := range tv {
		if v >= 0 {
			qP = append(qP, i)
		}
	}
	if t := len(qP); t > 0 {
		cvv := b.Gather(at(addrA, comp, 0, qP), 0)
		lvv := b.Gather(at(addrB, lastKey, 0, qP), 0)
		oIdx := rest[:t]
		ov := b.Vals(t)
		for s, i := range qP {
			oIdx[s] = out + int(tv[i])
			if lvv[s] == cvv[s]/machine.Word(2*total) {
				ov[s] = 1
			} else {
				ov[s] = 0
			}
		}
		b.Scatter(oIdx, 0, ov)
	}
	return b.Commit()
}
