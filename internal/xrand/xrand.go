// Package xrand provides deterministic, splittable pseudo-random number
// streams for the PRAM simulator.
//
// All algorithms in the reproduced paper are Las Vegas randomized
// algorithms. To make runs reproducible independent of goroutine
// scheduling, every virtual processor derives its random values from a
// counter-based generator keyed by (seed, step, processor): the same
// (seed, step, proc) triple always yields the same stream, no matter how
// the host interleaves execution.
package xrand

import "math/bits"

// SplitMix64 advances the SplitMix64 state and returns the next value.
// It is the standard mixer from Steele, Lea & Flood (OOPSLA 2014) and is
// used both as a stand-alone hash and to seed Stream.
func SplitMix64(state uint64) uint64 {
	z := state + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix3 hashes a (seed, step, proc) triple into a single well-mixed value.
// It equals ProcKey(StepKey(seed, step), proc); a caller keying many
// processors of one step computes StepKey once and pays one mixer call
// per processor.
func Mix3(seed, step, proc uint64) uint64 {
	return ProcKey(StepKey(seed, step), proc)
}

// StepKey is the (seed, step) prefix of Mix3.
func StepKey(seed, step uint64) uint64 {
	h := SplitMix64(seed ^ 0x8f1bbcdcbfa53e0b)
	return SplitMix64(h ^ step*0xd6e8feb86659fd93)
}

// ProcKey finishes Mix3 for one processor from its step's StepKey.
func ProcKey(stepKey, proc uint64) uint64 {
	return SplitMix64(stepKey ^ proc*0xa0761d6478bd642f)
}

// Stream is a small, fast xorshift-based generator. The zero value is not
// usable; construct one with NewStream.
type Stream struct {
	s0, s1 uint64
}

// NewStream returns a stream whose output is a pure function of key.
func NewStream(key uint64) *Stream {
	s := &Stream{}
	s.Reseed(key)
	return s
}

// StreamFrom returns a stream value (no heap allocation) whose output is
// a pure function of key.
func StreamFrom(key uint64) Stream {
	var s Stream
	s.Reseed(key)
	return s
}

// Reseed resets the stream to the state determined by key.
func (s *Stream) Reseed(key uint64) {
	s.s0 = SplitMix64(key)
	s.s1 = SplitMix64(s.s0)
	if s.s0 == 0 && s.s1 == 0 { // xorshift128+ must not start at all-zero
		s.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next pseudo-random 64-bit value (xorshift128+).
func (s *Stream) Uint64() uint64 {
	x, y := s.s0, s.s1
	s.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	s.s1 = x
	return x + y
}

// Uint64n returns a value uniform in [0, n). n must be positive.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	v := s.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = s.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Intn returns a value uniform in [0, n). n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Perm returns a uniformly random permutation of [0, n) generated
// sequentially with Fisher-Yates. It is used by tests and baselines, not
// by the parallel algorithms themselves.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}
