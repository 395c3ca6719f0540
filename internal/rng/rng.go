// Package rng provides small, fast, deterministic pseudo-random number
// generators suitable for parallel graph generation and randomized
// algorithms. All generators are seeded explicitly, so every stochastic
// component of the repository is reproducible.
//
// The core generator is SplitMix64 (Steele, Lea, Flood; 2014), which has
// a trivially splittable state: distinct streams are derived by hashing a
// (seed, stream) pair. That makes it safe to hand independent generators
// to many goroutines (one per MPI-sim rank or per worker thread) without
// any locking and without stream overlap in practice.
package rng

import (
	"math"
	"math/bits"
)

// golden is the 64-bit golden ratio constant used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Rand is a SplitMix64 pseudo-random generator. The zero value is a valid
// generator seeded with 0; prefer New to mix the seed first.
type Rand struct {
	state uint64
}

// New returns a generator whose stream is determined entirely by seed.
func New(seed uint64) *Rand {
	r := &Rand{state: Mix(seed)}
	return r
}

// NewStream returns a generator for the given (seed, stream) pair.
// Different stream values yield statistically independent sequences,
// which is how per-rank and per-thread generators are derived.
func NewStream(seed, stream uint64) *Rand {
	return &Rand{state: Mix(seed ^ Mix(stream+1))}
}

// Mix is the SplitMix64 finalizer: a bijective scrambling of a 64-bit
// value. It is exported because hashed vertex distributions use it to map
// global vertex identifiers to owner ranks.
func Mix(z uint64) uint64 {
	z += golden
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint32 returns 32 pseudo-random bits.
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Int64n returns a uniform pseudo-random integer in [0, n). It panics if
// n <= 0. Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Rand) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n called with n <= 0")
	}
	un := uint64(n)
	// Fast path for powers of two.
	if un&(un-1) == 0 {
		return int64(r.Uint64() & (un - 1))
	}
	// Lemire multiply-shift with rejection of the biased low region:
	// reject while the low product word is below 2^64 mod n.
	thresh := -un % un
	for {
		hi, lo := bits.Mul64(r.Uint64(), un)
		if lo >= thresh {
			return int64(hi)
		}
	}
}

// Intn returns a uniform pseudo-random int in [0, n). Panics if n <= 0.
func (r *Rand) Intn(n int) int {
	return int(r.Int64n(int64(n)))
}

// Float64 returns a uniform pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a pseudo-random boolean with probability 1/2.
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// Exp returns an exponentially distributed float64 with rate 1.
func (r *Rand) Exp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a pseudo-random permutation of [0, n) as an []int64.
func (r *Rand) Perm(n int64) []int64 {
	p := make([]int64, n)
	for i := int64(0); i < n; i++ {
		p[i] = i
	}
	r.ShuffleInt64(p)
	return p
}

// ShuffleInt64 permutes s uniformly at random (Fisher–Yates).
func (r *Rand) ShuffleInt64(s []int64) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Sample returns k distinct uniform values from [0, n) in selection
// order. It panics if k > n or k < 0. For small k relative to n it uses
// rejection against a set; otherwise it uses a partial Fisher–Yates.
func (r *Rand) Sample(n, k int64) []int64 {
	if k < 0 || k > n {
		panic("rng: Sample requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*4 < n {
		seen := make(map[int64]struct{}, k)
		out := make([]int64, 0, k)
		for int64(len(out)) < k {
			v := r.Int64n(n)
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				out = append(out, v)
			}
		}
		return out
	}
	p := r.Perm(n)
	return p[:k]
}
