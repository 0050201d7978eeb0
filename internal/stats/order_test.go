package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"gridtrust/internal/rng"
)

// edgeFloats are the values where a bit-pattern sort can part from
// sort.Float64s: NaNs of both signs and several payloads, signed zeros,
// infinities, subnormals and the extremes.
var edgeFloats = []float64{
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0xffffffffffffffff),
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1, -1, 1.5, -1.5,
}

// checkSampleOrder holds Sample's order to sort.Float64s on xs: after a
// Quantile, Values lists the same values in the same order, NaNs first
// and in the order they were added, −0 before +0 where sort.Float64s
// leaves the two unordered, and each quantile equals the one the old
// order gives.
func checkSampleOrder(t *testing.T, label string, xs []float64) {
	t.Helper()
	want := slices.Clone(xs)
	sort.Float64s(want)
	var s Sample
	for _, x := range xs {
		s.Add(x)
	}
	for _, q := range []float64{0, 0.05, 0.5, 0.95, 1} {
		got := s.Quantile(q)
		ref := quantileOf(want, q)
		if got != ref && !(math.IsNaN(got) && math.IsNaN(ref)) {
			t.Fatalf("%s: Quantile(%g) = %v, sort.Float64s order gives %v", label, q, got, ref)
		}
	}
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	var nans []uint64
	for _, x := range xs {
		if math.IsNaN(x) {
			nans = append(nans, math.Float64bits(x))
		}
	}
	for i, x := range got {
		if i < len(nans) {
			if b := math.Float64bits(x); b != nans[i] {
				t.Fatalf("%s: value %d is %#x, want the NaN %#x, NaNs in the order added", label, i, b, nans[i])
			}
			continue
		}
		if x != want[i] {
			t.Fatalf("%s: value %d is %v, sort.Float64s puts %v there", label, i, x, want[i])
		}
		if i > 0 && x == 0 && math.Signbit(x) && !math.Signbit(got[i-1]) && got[i-1] == 0 {
			t.Fatalf("%s: +0 before −0 at %d", label, i)
		}
	}
}

// quantileOf is Quantile's interpolation over an already sorted slice.
func quantileOf(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TestSampleOrderMatchesSortFloat64s draws samples on both sides of
// radixMin from the edge values, duplicates, narrow and wide exponent
// ranges, so every radix pass is both taken and skipped.
func TestSampleOrderMatchesSortFloat64s(t *testing.T) {
	src := rng.New(40)
	checkSampleOrder(t, "edges", edgeFloats)
	for trial := 0; trial < 300; trial++ {
		n := []int{1, 2, 3, radixMin - 1, radixMin, radixMin + 1, 300, 2048}[trial%8]
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 5 {
			case 0: // completion-like: positive, one or two exponents
				xs[i] = 100 + src.Float64()*50
			case 1: // wide exponents of both signs
				xs[i] = math.Ldexp(src.Float64()-0.5, src.Intn(2000)-1000)
			case 2: // a few values, many duplicates
				xs[i] = float64(src.Intn(4)) - 1.5
			case 3: // mostly edge values
				xs[i] = edgeFloats[src.Intn(len(edgeFloats))]
			default: // arbitrary bit patterns
				xs[i] = math.Float64frombits(src.Uint64())
			}
		}
		checkSampleOrder(t, fmt.Sprintf("trial %d (n=%d)", trial, n), xs)
	}
}

// FuzzSampleOrder holds Sample's order to sort.Float64s on arbitrary bit
// patterns, each input checked as given and repeated past radixMin.
func FuzzSampleOrder(f *testing.F) {
	var seed []byte
	for _, x := range edgeFloats {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(x))
	}
	f.Add(seed)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var xs []float64
		for ; len(data) >= 8; data = data[8:] {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(xs) == 0 {
			return
		}
		checkSampleOrder(t, "as given", xs)
		long := xs
		for len(long) <= radixMin {
			long = append(long, xs...)
		}
		checkSampleOrder(t, "repeated", long)
	})
}

// BenchmarkSampleQuantile times the first Quantile of a fresh sample of
// completion-like values — the sort a run's finish pays — beside
// sort.Float64s on the same values, at the paper's 50 and 100 requests
// and the repository benchmark's 2048.
func BenchmarkSampleQuantile(b *testing.B) {
	for _, n := range []int{50, 100, 2048} {
		src := rng.New(uint64(n))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 20 + src.Float64()*400
		}
		b.Run(fmt.Sprintf("n=%d/Sample", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := Sample{xs: slices.Clone(xs)}
				s.Quantile(0.5)
			}
		})
		b.Run(fmt.Sprintf("n=%d/sort.Float64s", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := slices.Clone(xs)
				sort.Float64s(s)
			}
		})
	}
}
