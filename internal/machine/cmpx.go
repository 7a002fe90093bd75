package machine

import "fmt"

// CompareExchange executes round (j, k) of Batcher's bitonic network on
// the n keys at keys as one step, in place: each pair (i, i+j) with bit
// j of i clear is put in ascending order if bit k of i is clear and in
// descending order otherwise, and if vals >= 0 the payload pair at vals
// moves with its keys. n, j and k are powers of two with 2j <= k <= n,
// and the two regions must not overlap.
//
// The step charges the element-wise round up to processor relabeling:
// p = n; processor t < n/2 reads keys+2t and keys+2t+1 and performs the
// t-th swapped pair's two key writes, two payload reads and two payload
// writes. Each cell has one accessor, so each kind's contention is one,
// at its lowest address. The address sets are analytic, so the round
// needs no access buffer and no disjointness proof; under hot-cell
// profiling (and noBulkFast) the same accesses fill the scalar buffers
// instead, in the processor-major order Bulk expansion uses.
func (m *Machine) CompareExchange(label string, keys, vals, n, j, k int) error {
	if n < 2 || n&(n-1) != 0 || j < 1 || j&(j-1) != 0 || k&(k-1) != 0 || 2*j > k || k > n {
		panic(fmt.Sprintf("machine: CompareExchange n=%d j=%d k=%d", n, j, k))
	}
	m.checkAddr(keys)
	m.checkAddr(keys + n - 1)
	var vv []Word
	if vals >= 0 {
		m.checkAddr(vals)
		m.checkAddr(vals + n - 1)
		if vals < keys+n && keys < vals+n {
			panic(fmt.Sprintf("machine: CompareExchange keys [%d,%d) overlap vals [%d,%d)", keys, keys+n, vals, vals+n))
		}
		vv = m.mem[vals : vals+n : vals+n]
	}
	if m.err != nil {
		return m.err
	}
	m.stepIndex++
	w := m.worker()
	w.reset()
	kv := m.mem[keys : keys+n : keys+n]
	first := 0 // the ordinal of the first swapped pair
	for first < n/2 && !cmpxSwaps(kv, pairAt(first, j), j, k) {
		first++
	}
	s := 0
	if m.hotK > 0 || m.noBulkFast {
		s = w.recordCmpx(m.mem, keys, vals, n, j, k, first)
	} else {
		// Pairs t to t+k/2 span the k cells from 2t, which share bit k
		// and so one direction.
		for t := 0; t < n/2; t += k / 2 {
			if vv == nil {
				s += cmpxKeys(kv, t, t+k/2, j, 2*t&k != 0)
			} else {
				s += cmpxPairs(kv, vv, t, t+k/2, j, 2*t&k != 0)
			}
		}
		w.maxR, w.maxRAddr = 1, keys
		if s > 0 {
			i := pairAt(first, j)
			w.maxW, w.maxWAddr = 1, keys+i
			if vals >= 0 {
				w.maxRAddr, w.maxWAddr = min(keys, vals+i), min(keys, vals)+i
			}
			m.dirty = max(m.dirty, max(keys, vals)+n)
		}
	}
	// Processor 0 carries the most operations: two key reads and, if any
	// pair swapped, the first exchange.
	w.maxOps, w.reads, w.writesN = 2, int64(n), 2*int64(s)
	if vals >= 0 && s > 0 {
		w.maxOps, w.reads, w.writesN = 4, w.reads+2*int64(s), 2*w.writesN
	}
	if m.model.SIMD() {
		w.simdViol, w.simdCount = true, w.maxOps
	}
	return m.finishStep(n, label)
}

// pairAt returns the lower cell i of the round's t-th pair (i, i+j):
// the t-th index with bit j clear.
func pairAt(t, j int) int { return t + t&^(j-1) }

// cmpxSwaps reports whether the round exchanges the pair (i, i+j): its
// keys are out of the order that bit k of i selects.
func cmpxSwaps(kv []Word, i, j, k int) bool { return (kv[i] > kv[i+j]) == (i&k == 0) }

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// cmpxKeys orders the pairs t0 <= t < t1 ascending (the lower cell
// keeps the minimum) or descending, and returns how many swapped; a
// descending pair of equal keys swaps, as in the element-wise network.
func cmpxKeys(kv []Word, t0, t1, j int, down bool) (c int) {
	if down {
		for t := t0; t < t1; t++ {
			i := pairAt(t, j)
			x, y := kv[i], kv[i+j]
			kv[i], kv[i+j] = max(x, y), min(x, y)
			c += b2i(x <= y)
		}
		return c
	}
	for t := t0; t < t1; t++ {
		i := pairAt(t, j)
		x, y := kv[i], kv[i+j]
		kv[i], kv[i+j] = min(x, y), max(x, y)
		c += b2i(x > y)
	}
	return c
}

// cmpxPairs is cmpxKeys with a payload: one swap mask exchanges the key
// pair and the payload pair.
func cmpxPairs(kv, vv []Word, t0, t1, j int, down bool) (c int) {
	vv = vv[:len(kv)]
	dn := b2i(down)
	for t := t0; t < t1; t++ {
		i := pairAt(t, j)
		l := i + j
		x, y := kv[i], kv[l]
		sw := b2i(x > y) ^ dn
		c += sw
		mask := -Word(sw)
		d := (x ^ y) & mask
		kv[i], kv[l] = x^d, y^d
		e := (vv[i] ^ vv[l]) & mask
		vv[i] ^= e
		vv[l] ^= e
	}
	return c
}

// recordCmpx appends the round's accesses to w's scalar buffers without
// touching memory and returns the number of swapped pairs, of which the
// first has ordinal u: processor t reads keys+2t and keys+2t+1, then
// performs the t-th swapped pair's exchange.
func (w *worker) recordCmpx(mem []Word, keys, vals, n, j, k, u int) (s int) {
	kv := mem[keys : keys+n]
	for t := range n / 2 {
		w.readAddrs = append(w.readAddrs, keys+2*t, keys+2*t+1)
		for u < n/2 && !cmpxSwaps(kv, pairAt(u, j), j, k) {
			u++
		}
		if u == n/2 {
			continue
		}
		i := pairAt(u, j)
		a, b := keys+i, keys+i+j
		w.writes = append(w.writes, writeOp{a, mem[b]}, writeOp{b, mem[a]})
		if vals >= 0 {
			a, b = vals+i, vals+i+j
			w.readAddrs = append(w.readAddrs, a, b)
			w.writes = append(w.writes, writeOp{a, mem[b]}, writeOp{b, mem[a]})
		}
		s++
		u++
	}
	w.touch(max(keys, vals) + n - 1)
	return s
}
