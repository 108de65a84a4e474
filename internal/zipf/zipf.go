// Package zipf implements the Zipf-like video popularity distributions used
// by the paper: the probability of choosing the i-th most popular of M videos
// is p_i = (1/i^θ) / Σ_{k=1..M} 1/k^θ, with skew parameter θ.
//
// θ = 0 degenerates to the uniform distribution; θ = 1 is the classical Zipf
// law. The paper reports that measured VoD popularity skews fall in
// 0.271 ≤ θ ≤ 1.
package zipf

import (
	"fmt"
	"math"
)

// Distribution is a Zipf-like popularity distribution over M ranked items.
// Index 0 is the most popular item.
type Distribution struct {
	m     int
	theta float64
	probs []float64
	cdf   []float64
}

// New returns the Zipf-like distribution with m items and skew theta.
// It returns an error if m <= 0 or theta < 0.
func New(m int, theta float64) (*Distribution, error) {
	if m <= 0 {
		return nil, fmt.Errorf("zipf: number of items must be positive, got %d", m)
	}
	if theta < 0 {
		return nil, fmt.Errorf("zipf: skew must be non-negative, got %g", theta)
	}
	d := &Distribution{m: m, theta: theta, probs: make([]float64, m), cdf: make([]float64, m)}
	sum := 0.0
	for i := 0; i < m; i++ {
		d.probs[i] = 1 / math.Pow(float64(i+1), theta)
		sum += d.probs[i]
	}
	run := 0.0
	for i := 0; i < m; i++ {
		d.probs[i] /= sum
		run += d.probs[i]
		d.cdf[i] = run
	}
	d.cdf[m-1] = 1 // absorb rounding error
	return d, nil
}

// MustNew is like New but panics on error. Use for compile-time-known
// parameters.
func MustNew(m int, theta float64) *Distribution {
	d, err := New(m, theta)
	if err != nil {
		panic(err)
	}
	return d
}

// M returns the number of items.
func (d *Distribution) M() int { return d.m }

// Theta returns the skew parameter.
func (d *Distribution) Theta() float64 { return d.theta }

// Prob returns the probability of the item with rank i (0-based, 0 = most
// popular). It panics if i is out of range.
func (d *Distribution) Prob(i int) float64 { return d.probs[i] }

// Probs returns a copy of the full probability vector, most popular first.
func (d *Distribution) Probs() []float64 {
	return append([]float64(nil), d.probs...)
}

// CDF returns the cumulative probability of ranks 0..i.
func (d *Distribution) CDF(i int) float64 { return d.cdf[i] }

// TopMass returns the total probability mass of the k most popular items.
// k is clamped to [0, M].
func (d *Distribution) TopMass(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= d.m {
		return 1
	}
	return d.cdf[k-1]
}

// Harmonic returns the generalized harmonic number H_{n,θ} = Σ_{k=1..n} k^-θ.
func Harmonic(n int, theta float64) float64 {
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), theta)
	}
	return sum
}

// Partition splits the interval [0, total] into n sub-intervals whose widths
// follow a Zipf-like law with skew u: width of interval j (1-based) is
// proportional to 1/j^u. It returns the n+1 boundaries z_0 = total ≥ z_1 ≥
// ... ≥ z_n = 0, ordered from the top of the range downward. This is the
// interval-generation function of the paper's Zipf-interval replication
// (§4.1.2): interval 1 — the widest for u > 0 — covers the highest
// popularities.
//
// Negative u is allowed (widths then grow with j), which the replication
// binary search uses to shrink the top interval below uniform.
func Partition(total float64, n int, u float64) []float64 {
	if n <= 0 {
		panic("zipf: Partition needs at least one interval")
	}
	return PartitionInto(make([]float64, n+1), total, u)
}

// PartitionInto is Partition for n = len(bounds) − 1 intervals, writing the
// boundaries into bounds instead of allocating them; it returns bounds. The
// replication binary search calls it once per step.
func PartitionInto(bounds []float64, total float64, u float64) []float64 {
	n := len(bounds) - 1
	if n <= 0 {
		panic("zipf: Partition needs at least one interval")
	}
	// bounds[j+1] holds interval j's weight until the second pass replaces
	// it with the boundary below the interval.
	sum := 0.0
	for j := 0; j < n; j++ {
		bounds[j+1] = math.Pow(float64(j+1), -u)
		sum += bounds[j+1]
	}
	bounds[0] = total
	acc := 0.0
	for j := 0; j < n; j++ {
		acc += bounds[j+1] / sum
		bounds[j+1] = total * (1 - acc)
	}
	bounds[n] = 0 // absorb rounding error
	return bounds
}
