// Package stats provides the statistical accumulators used by the
// simulator's metric pipeline: numerically stable running moments
// (Welford), min/max tracking, percentiles, Student-t confidence
// intervals, and paired-sample comparisons.
//
// Every experiment in the paper (Tables 4-9) reports a mean over stochastic
// replications; the harness additionally reports 95% confidence intervals
// so that "who wins" claims are statistically grounded even though the
// paper itself reports point estimates only.
package stats

import (
	"fmt"
	"math"
	"slices"
)

// Running accumulates count, mean, variance (Welford's online algorithm),
// minimum and maximum without storing samples.  The zero value is ready to
// use.
type Running struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// AddN incorporates the same observation n times.
func (r *Running) AddN(x float64, n int64) {
	for i := int64(0); i < n; i++ {
		r.Add(x)
	}
}

// Merge combines another accumulator into r (Chan et al. parallel update),
// enabling per-worker accumulators in the parallel replication pool to be
// reduced without loss of precision.
func (r *Running) Merge(o Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = o
		return
	}
	delta := o.mean - r.mean
	total := r.n + o.n
	r.mean += delta * float64(o.n) / float64(total)
	r.m2 += o.m2 + delta*delta*float64(r.n)*float64(o.n)/float64(total)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = total
}

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean, or NaN if empty.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.mean
}

// Variance returns the unbiased sample variance, or NaN if n < 2.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n < 2 {
		return math.NaN()
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// Min returns the smallest observation, or NaN if empty.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.min
}

// Max returns the largest observation, or NaN if empty.
func (r *Running) Max() float64 {
	if r.n == 0 {
		return math.NaN()
	}
	return r.max
}

// Sum returns mean*n, the total of all observations.
func (r *Running) Sum() float64 { return r.mean * float64(r.n) }

// CI95 returns the half-width of the 95% Student-t confidence interval on
// the mean.  It returns 0 for n < 2 so callers can print it unconditionally.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return tCritical95(r.n-1) * r.StdErr()
}

// String summarises the accumulator for logs.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.3g sd=%.4g min=%.4g max=%.4g",
		r.n, r.Mean(), r.CI95(), r.StdDev(), r.Min(), r.Max())
}

// tCritical95 returns the two-sided 95% critical value of the Student t
// distribution for the given degrees of freedom.  Values above the table
// fall back to the normal approximation (1.96), which is accurate to <1%
// for df > 30.
func tCritical95(df int64) float64 {
	table := []float64{
		0, // df = 0 unused
		12.706, 4.303, 3.182, 2.776, 2.571,
		2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131,
		2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060,
		2.056, 2.052, 2.048, 2.045, 2.042,
	}
	if df <= 0 {
		return math.NaN()
	}
	if int(df) < len(table) {
		return table[df]
	}
	return 1.96
}

// Sample stores raw observations for quantile queries.  Unlike Running it
// holds all data; use it for per-request completion times where
// percentiles matter.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Grow reserves room for n more observations, so a caller that knows
// how many it will add appends them without reallocating.
func (s *Sample) Grow(n int) {
	s.xs = slices.Grow(s.xs, max(n, 0))
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or NaN if empty.  It sums the values in
// their current order, which keeps the bit-exact results downstream
// outputs are byte-compared against.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics.  It returns NaN if the sample is empty or q is
// out of range.  It sorts the values in place, in the order of
// sort.Float64s (NaNs first, then ascending) with −0 before +0, and
// Values returns them in that order until the next Add.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if !s.sorted {
		sortFloats(s.xs)
		s.sorted = true
	}
	if len(s.xs) == 1 {
		return s.xs[0]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// radixMin is the sample size from which sortFloats radix-sorts; below
// it pattern-defeating quicksort (slices.Sort) is faster: on uniform
// completion times the two cross near 800 values, and the radix sort
// takes 2048 in 0.4 of the time.
const radixMin = 1024

// sortFloats sorts xs in the order of sort.Float64s — NaNs first, in
// the order they were in, then ascending — and puts −0 before +0, which
// sort.Float64s leaves unordered.  Past radixMin values it is an LSD
// radix sort, a byte per pass, on floatKey.
func sortFloats(xs []float64) {
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[i], xs[nan] = xs[nan], x
			nan++
		}
	}
	xs = xs[nan:]
	if len(xs) < radixMin {
		slices.Sort(xs)
		// The zeros are one run; sign them −0 first.
		at, _ := slices.BinarySearch(xs, 0)
		neg, end := 0, at
		for ; end < len(xs) && xs[end] == 0; end++ {
			if math.Signbit(xs[end]) {
				neg++
			}
		}
		for i := at; i < end; i++ {
			xs[i] = 0
			if i < at+neg {
				xs[i] = math.Copysign(0, -1)
			}
		}
		return
	}
	// The keys pass between xs, held there as bit patterns that nothing
	// reads as numbers, and one scratch list.
	tmp := make([]uint64, len(xs))
	k0, diff := floatKey(xs[0]), uint64(0) // diff: the bits some key differs in
	for i, x := range xs {
		k := floatKey(x)
		xs[i] = math.Float64frombits(k)
		diff |= k ^ k0
	}
	inXs := true
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue // every key has this byte
		}
		var at [256]uint32
		if inXs {
			for _, x := range xs {
				at[byte(math.Float64bits(x)>>shift)]++
			}
		} else {
			for _, k := range tmp {
				at[byte(k>>shift)]++
			}
		}
		var sum uint32
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		if inXs {
			for _, x := range xs {
				k := math.Float64bits(x)
				b := byte(k >> shift)
				tmp[at[b]] = k
				at[b]++
			}
		} else {
			for _, k := range tmp {
				b := byte(k >> shift)
				xs[at[b]] = math.Float64frombits(k)
				at[b]++
			}
		}
		inXs = !inXs
	}
	for i := range xs {
		k := tmp[i]
		if inXs {
			k = math.Float64bits(xs[i])
		}
		xs[i] = floatFromKey(k)
	}
}

// floatKey maps a non-NaN float to a key whose unsigned order is the
// float order with −0 below +0: a positive float's bits with the sign
// set, a negative float's bits inverted.
func floatKey(x float64) uint64 {
	b := math.Float64bits(x)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// floatFromKey inverts floatKey.
func floatFromKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Histogram builds a fixed-width histogram over [min,max] with the given
// number of bins; values outside the range clamp to the end bins.
func (s *Sample) Histogram(min, max float64, bins int) []int {
	if bins <= 0 || max <= min {
		return nil
	}
	h := make([]int, bins)
	width := (max - min) / float64(bins)
	for _, x := range s.xs {
		i := int((x - min) / width)
		if i < 0 {
			i = 0
		}
		if i >= bins {
			i = bins - 1
		}
		h[i]++
	}
	return h
}

// Values returns a copy of the raw observations.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// Paired accumulates paired observations (a_i, b_i) — e.g. trust-unaware vs
// trust-aware completion time on the identical workload — and reports the
// mean relative improvement (a-b)/a the way the paper's "Improvement"
// column is defined.
type Paired struct {
	a, b  Running
	diff  Running // a_i - b_i
	ratio Running // (a_i - b_i)/a_i, skipping a_i == 0
}

// Add records one pair.  By the paper's convention a is the baseline
// (trust-unaware) value and b the treatment (trust-aware) value.
func (p *Paired) Add(a, b float64) {
	p.a.Add(a)
	p.b.Add(b)
	p.diff.Add(a - b)
	if a != 0 {
		p.ratio.Add((a - b) / a)
	}
}

// N returns the number of pairs.
func (p *Paired) N() int64 { return p.a.N() }

// BaselineMean returns the mean of the baseline series.
func (p *Paired) BaselineMean() float64 { return p.a.Mean() }

// TreatmentMean returns the mean of the treatment series.
func (p *Paired) TreatmentMean() float64 { return p.b.Mean() }

// ImprovementPercent returns the paper-style improvement computed from the
// aggregate means: (mean(a) - mean(b)) / mean(a) * 100.
func (p *Paired) ImprovementPercent() float64 {
	am := p.a.Mean()
	if am == 0 || math.IsNaN(am) {
		return math.NaN()
	}
	return (am - p.b.Mean()) / am * 100
}

// MeanPairwiseImprovementPercent returns the mean of the per-pair relative
// improvements, which weights every replication equally.
func (p *Paired) MeanPairwiseImprovementPercent() float64 {
	return p.ratio.Mean() * 100
}

// DiffCI95 returns the 95% confidence half-width on the mean paired
// difference a-b; if the interval excludes zero the improvement is
// statistically significant at the 5% level.
func (p *Paired) DiffCI95() float64 { return p.diff.CI95() }

// MeanDiff returns the mean paired difference a-b.
func (p *Paired) MeanDiff() float64 { return p.diff.Mean() }

// Significant reports whether the mean paired difference is significantly
// different from zero at the 5% level.
func (p *Paired) Significant() bool {
	ci := p.DiffCI95()
	d := p.diff.Mean()
	return p.diff.N() >= 2 && !math.IsNaN(d) && math.Abs(d) > ci
}
