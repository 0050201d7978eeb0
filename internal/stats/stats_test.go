package stats

import (
	"math"
	"testing"
	"testing/quick"

	"gridtrust/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestRunningBasics(t *testing.T) {
	var r Running
	if !math.IsNaN(r.Mean()) || !math.IsNaN(r.Min()) || !math.IsNaN(r.Max()) {
		t.Fatal("empty accumulator should report NaN")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Fatalf("Mean = %g, want 5", r.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if !almostEqual(r.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("Variance = %g, want %g", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("Min/Max = %g/%g, want 2/9", r.Min(), r.Max())
	}
	if !almostEqual(r.Sum(), 40, 1e-9) {
		t.Fatalf("Sum = %g, want 40", r.Sum())
	}
}

func TestRunningSingleObservation(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Mean() != 3.5 || r.Min() != 3.5 || r.Max() != 3.5 {
		t.Fatal("single observation stats wrong")
	}
	if !math.IsNaN(r.Variance()) {
		t.Fatal("variance of one sample should be NaN")
	}
	if r.CI95() != 0 {
		t.Fatal("CI95 of one sample should be 0")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	src := rng.New(42)
	var whole Running
	var a, b Running
	for i := 0; i < 1000; i++ {
		x := src.Normal(10, 3)
		whole.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Fatalf("merged mean %g != %g", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-7) {
		t.Fatalf("merged variance %g != %g", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestRunningMergeEmptyCases(t *testing.T) {
	var a, b Running
	a.Merge(b) // empty into empty
	if a.N() != 0 {
		t.Fatal("merge of empties should stay empty")
	}
	b.Add(7)
	a.Merge(b) // non-empty into empty
	if a.N() != 1 || a.Mean() != 7 {
		t.Fatal("merge into empty failed")
	}
	var c Running
	a.Merge(c) // empty into non-empty
	if a.N() != 1 || a.Mean() != 7 {
		t.Fatal("merge of empty changed accumulator")
	}
}

func TestRunningAddN(t *testing.T) {
	var r Running
	r.AddN(4, 5)
	if r.N() != 5 || r.Mean() != 4 || r.Variance() != 0 {
		t.Fatalf("AddN stats wrong: %v", r.String())
	}
}

func TestRunningMeanBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		var r Running
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				// Huge magnitudes overflow Welford's m2; simulation
				// quantities are bounded far below this.
				return true
			}
			r.Add(x)
		}
		if r.N() == 0 {
			return true
		}
		m := r.Mean()
		ok = ok && m >= r.Min()-1e-9 && m <= r.Max()+1e-9
		if r.N() >= 2 {
			ok = ok && r.Variance() >= -1e-9
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95Width(t *testing.T) {
	// For n=10000 N(0,1) samples the CI should be ~1.96/100.
	src := rng.New(7)
	var r Running
	for i := 0; i < 10000; i++ {
		r.Add(src.Normal(0, 1))
	}
	ci := r.CI95()
	if !almostEqual(ci, 1.96/100, 0.002) {
		t.Fatalf("CI95 = %g, want ~0.0196", ci)
	}
}

func TestTCritical(t *testing.T) {
	if got := tCritical95(1); got != 12.706 {
		t.Fatalf("t(1) = %g", got)
	}
	if got := tCritical95(29); got != 2.045 {
		t.Fatalf("t(29) = %g", got)
	}
	if got := tCritical95(1000); got != 1.96 {
		t.Fatalf("t(1000) = %g", got)
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Fatal("t(0) should be NaN")
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for _, x := range []float64{9, 1, 8, 2, 7, 3, 6, 4, 5} {
		s.Add(x)
	}
	if got := s.Median(); got != 5 {
		t.Fatalf("Median = %g, want 5", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("Q0 = %g, want 1", got)
	}
	if got := s.Quantile(1); got != 9 {
		t.Fatalf("Q1 = %g, want 9", got)
	}
	if got := s.Quantile(0.25); got != 3 {
		t.Fatalf("Q25 = %g, want 3", got)
	}
	if !math.IsNaN(s.Quantile(-0.1)) || !math.IsNaN(s.Quantile(1.1)) {
		t.Fatal("out-of-range quantiles should be NaN")
	}
}

func TestSampleQuantileInterpolation(t *testing.T) {
	var s Sample
	s.Add(0)
	s.Add(10)
	if got := s.Quantile(0.5); got != 5 {
		t.Fatalf("interpolated median = %g, want 5", got)
	}
	if got := s.Quantile(0.75); got != 7.5 {
		t.Fatalf("Q75 = %g, want 7.5", got)
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Median()) {
		t.Fatal("empty sample should report NaN")
	}
	s.Add(42)
	if s.Mean() != 42 || s.Quantile(0.3) != 42 {
		t.Fatal("single-element sample stats wrong")
	}
}

func TestSampleAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(3)
	s.Add(1)
	_ = s.Median() // triggers sort
	s.Add(2)
	if got := s.Median(); got != 2 {
		t.Fatalf("median after re-add = %g, want 2", got)
	}
}

func TestHistogram(t *testing.T) {
	var s Sample
	for _, x := range []float64{-5, 0, 1, 2.5, 4.9, 5, 100} {
		s.Add(x)
	}
	h := s.Histogram(0, 5, 5)
	// -5 clamps to bin 0; 5 and 100 clamp to bin 4.
	want := []int{2, 1, 1, 0, 3}
	if len(h) != len(want) {
		t.Fatalf("histogram has %d bins", len(h))
	}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("bin %d = %d, want %d (h=%v)", i, h[i], want[i], h)
		}
	}
	if s.Histogram(0, 5, 0) != nil || s.Histogram(5, 0, 3) != nil {
		t.Fatal("degenerate histograms should be nil")
	}
}

func TestHistogramCountsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			n++
		}
		h := s.Histogram(-100, 100, 7)
		total := 0
		for _, c := range h {
			total += c
		}
		return total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairedImprovement(t *testing.T) {
	var p Paired
	p.Add(100, 60)
	p.Add(200, 120)
	// Aggregate means: 150 vs 90 -> 40% improvement.
	if got := p.ImprovementPercent(); !almostEqual(got, 40, 1e-9) {
		t.Fatalf("ImprovementPercent = %g, want 40", got)
	}
	if got := p.MeanPairwiseImprovementPercent(); !almostEqual(got, 40, 1e-9) {
		t.Fatalf("MeanPairwiseImprovementPercent = %g, want 40", got)
	}
	if p.BaselineMean() != 150 || p.TreatmentMean() != 90 {
		t.Fatal("paired means wrong")
	}
	if p.MeanDiff() != 60 {
		t.Fatalf("MeanDiff = %g, want 60", p.MeanDiff())
	}
}

func TestPairedSignificance(t *testing.T) {
	var p Paired
	// Consistent large improvement across many pairs: must be significant.
	src := rng.New(3)
	for i := 0; i < 30; i++ {
		base := src.Uniform(90, 110)
		p.Add(base, base*0.6+src.Uniform(-1, 1))
	}
	if !p.Significant() {
		t.Fatal("clear 40% improvement not flagged significant")
	}
	var q Paired
	// Pure noise must not be significant (overwhelmingly).
	for i := 0; i < 30; i++ {
		q.Add(100+src.Normal(0, 5), 100+src.Normal(0, 5))
	}
	if q.Significant() && math.Abs(q.MeanDiff()) > 5 {
		t.Fatal("noise comparison flagged with large diff")
	}
}

func TestPairedZeroBaseline(t *testing.T) {
	var p Paired
	p.Add(0, 0)
	if !math.IsNaN(p.MeanPairwiseImprovementPercent()) {
		// ratio accumulator skipped the pair, so mean is NaN
		t.Fatal("zero baseline should not contribute a ratio")
	}
	if !math.IsNaN(p.ImprovementPercent()) {
		t.Fatal("zero aggregate baseline should give NaN improvement")
	}
}

func TestRunningStringNonEmpty(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	if r.String() == "" {
		t.Fatal("String returned empty")
	}
}
