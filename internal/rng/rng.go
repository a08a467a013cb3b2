// Package rng provides a small, deterministic pseudo-random toolkit used by
// every stochastic experiment in this repository.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference constructions by Blackman and Vigna. It is not cryptographically
// secure; it is fast, has a 2^256−1 period, and — crucially for a
// reproduction — produces identical streams on every platform for a given
// seed, which math/rand/v2 does not promise across Go releases.
package rng

import "math"

// RNG is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed via splitmix64.
// Two generators built from the same seed produce identical streams.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// Split returns a new generator whose stream is independent of r's future
// output. It is used to hand child components their own reproducible source.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

// State is an RNG's complete internal position: the four xoshiro256**
// words. It is plain data, so stream positions can be checkpointed and
// restored exactly (see Save and Restore).
type State [4]uint64

// Save returns the generator's current state. A generator restored from it
// produces exactly the stream r would have produced from this point on.
func (r *RNG) Save() State { return r.s }

// Restore rewinds (or fast-forwards) the generator to a previously saved
// state. The all-zero state is xoshiro's one invalid fixed point (the
// stream would be constant zero), so it is rejected: restoring it leaves r
// unchanged and returns false. Any state produced by Save on a generator
// built with New is valid.
func (r *RNG) Restore(s State) bool {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return false
	}
	r.s = s
	return true
}

// FromState builds a generator positioned at a previously saved state; it
// returns nil for the invalid all-zero state (see Restore).
func FromState(s State) *RNG {
	var r RNG
	if !r.Restore(s) {
		return nil
	}
	return &r
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics; callers control n so this is a programming error.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo32 := t&mask32 + aLo*bHi
	hi = aHi*bHi + t>>32 + lo32>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a sample from N(mean, stddev²) using the Marsaglia polar
// method (no trigonometric calls, deterministic consumption of the stream).
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
	}
}

// RoundedPositiveNormal samples N(mean, stddev²) rounded to the nearest
// integer and clamped to be at least 1. This is the paper's "rounded normal
// distribution" for per-peer slot budgets (all samples are rounded to the
// nearest positive integer).
func (r *RNG) RoundedPositiveNormal(mean, stddev float64) int {
	v := int(math.Round(r.Normal(mean, stddev)))
	if v < 1 {
		return 1
	}
	return v
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := 1; i < n; i++ {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes s in place.
func (r *RNG) Shuffle(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
