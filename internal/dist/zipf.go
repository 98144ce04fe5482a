package dist

import (
	"fmt"
	"math"

	"repro/internal/simrng"
)

// Zipf draws ranks from a bounded Zipf (zeta) distribution over
// {0, 1, ..., N-1}: P(rank k) proportional to 1/(k+1)^S.
//
// It precomputes the cumulative mass function and a guide table over
// it (Chen and Asau's indexed search), so Rank takes O(1) expected
// steps: with N buckets for N ranks, a uniform draw compares against
// at most two CDF entries on average. This is the popularity law
// behind the content model: item popularity in file-sharing networks
// is well approximated by a Zipf distribution.
type Zipf struct {
	s   float64
	cum []float64
	// guide[b] is the first rank k with bucket(cum[k]) >= b, for b in
	// [0, N]. bucket is monotone, so every rank below guide[bucket(u)]
	// has cum[k] < u, and a forward scan from there finds exactly the
	// first k with cum[k] >= u.
	guide []int32
}

// bucket maps a cumulative probability in [0, 1] to a guide-table
// index in [0, n].
func bucket(x float64, n int) int { return int(x * float64(n)) }

// NewZipf builds a bounded Zipf distribution over n ranks with exponent
// s >= 0. s == 0 degenerates to the uniform distribution.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 || n > math.MaxInt32 {
		return nil, fmt.Errorf("dist: Zipf needs 0 < n <= MaxInt32, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("dist: Zipf exponent must be >= 0, got %v", s)
	}
	cum := make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += math.Pow(float64(k+1), -s)
		cum[k] = acc
	}
	inv := 1 / acc
	for k := range cum {
		cum[k] *= inv
	}
	cum[n-1] = 1
	// bucket(cum[n-1]) == n, so the scan stops at or before rank n-1.
	guide := make([]int32, n+1)
	k := 0
	for b := range guide {
		for bucket(cum[k], n) < b {
			k++
		}
		guide[b] = int32(k)
	}
	return &Zipf{s: s, cum: cum, guide: guide}, nil
}

// MustZipf is NewZipf but panics on invalid arguments.
func MustZipf(n int, s float64) *Zipf {
	z, err := NewZipf(n, s)
	if err != nil {
		panic(err)
	}
	return z
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Rank draws a rank in [0, N): the first k with cum[k] >= u for a
// uniform u in [0, 1), the same rank a binary search over the CDF
// returns.
func (z *Zipf) Rank(r *simrng.RNG) int { return z.rankOf(r.Float64()) }

// rankOf returns the first k with cum[k] >= u, for u in [0, 1).
func (z *Zipf) rankOf(u float64) int {
	k := int(z.guide[bucket(u, len(z.cum))])
	for z.cum[k] < u {
		k++
	}
	return k
}

// Prob returns the probability mass of rank k.
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= len(z.cum) {
		return 0
	}
	if k == 0 {
		return z.cum[0]
	}
	return z.cum[k] - z.cum[k-1]
}

// CDF returns the cumulative probability of ranks <= k.
func (z *Zipf) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= len(z.cum) {
		return 1
	}
	return z.cum[k]
}

// Sample implements Sampler by returning the drawn rank as a float64.
func (z *Zipf) Sample(r *simrng.RNG) float64 { return float64(z.Rank(r)) }

// Mean returns the expected rank.
func (z *Zipf) Mean() float64 {
	mean := 0.0
	for k := range z.cum {
		mean += float64(k) * z.Prob(k)
	}
	return mean
}

var _ Sampler = (*Zipf)(nil)
