// Package rng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used by the synthetic SUPReMM
// workload generators.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure must regenerate identically for a given seed. The
// generator is a PCG-XSH-RR 64/32 variant extended to 64-bit output, with a
// cheap Split operation that derives statistically independent sub-streams
// (one per node, per job, per application) so that changing how many samples
// one component draws does not perturb any other component.
package rng

import "math"

// mult is the PCG default LCG multiplier.
const mult = 6364136223846793005

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; derive one per goroutine with Split.
type Rand struct {
	state uint64
	inc   uint64 // stream selector; always odd

	// cached spare normal variate (Marsaglia polar method)
	haveSpare bool
	spare     float64
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *Rand {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a generator with an explicit stream selector, allowing
// many independent sequences from the same seed.
func NewStream(seed, stream uint64) *Rand {
	r := &Rand{inc: stream<<1 | 1}
	r.state = 0
	r.Uint64()
	r.state += seed
	r.Uint64()
	return r
}

// Split derives a new, statistically independent generator keyed by id.
// Splitting with the same id always yields the same child stream, so
// components can be re-run independently of each other.
func (r *Rand) Split(id uint64) *Rand {
	// Mix the child id through splitmix64 so adjacent ids land far apart.
	h := mix64(r.inc>>1 ^ id)
	s := mix64(r.state ^ h)
	return NewStream(s, h)
}

// mix64 is the splitmix64 finalizer, a strong 64-bit mixer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	// Two PCG-XSH-RR 32-bit outputs concatenated.
	return uint64(r.next32())<<32 | uint64(r.next32())
}

func (r *Rand) next32() uint32 {
	old := r.state
	r.state = old*mult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul128(x, bound)
	if lo < bound {
		thresh := -bound % bound
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul128(x, bound)
		}
	}
	return int(hi)
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	c = t >> 32
	m := t & mask
	t = a0*b1 + m
	lo |= (t & mask) << 32
	hi = a1*b1 + c + (t >> 32)
	return hi, lo
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method with spare caching.
func (r *Rand) Normal() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.haveSpare = true
		return u * f
	}
}

// NormalAt returns a normal variate with the given mean and stddev.
func (r *Rand) NormalAt(mean, stddev float64) float64 {
	return mean + stddev*r.Normal()
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma are the parameters of
// the underlying normal, i.e. the log-space location and scale.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.NormalAt(mu, sigma))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Sampler draws from a fixed categorical distribution in O(1) per sample
// using Walker's alias method. Build once, sample many times.
type Sampler struct {
	prob  []float64
	alias []int
}

// NewSampler builds an alias table for the given (unnormalized) weights.
func NewSampler(weights []float64) *Sampler {
	n := len(weights)
	if n == 0 {
		panic("rng: NewSampler with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("rng: NewSampler with no positive weight")
	}
	s := &Sampler{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.prob[l] = scaled[l]
		s.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		s.prob[g] = 1
	}
	for _, l := range small {
		s.prob[l] = 1
	}
	return s
}

// Sample draws one index from the distribution using r.
func (s *Sampler) Sample(r *Rand) int {
	i := r.Intn(len(s.prob))
	if r.Float64() < s.prob[i] {
		return i
	}
	return s.alias[i]
}
