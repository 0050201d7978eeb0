package sched

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
)

// The security costs the three constructors computed through closures,
// kept verbatim as the oracle but for the captured weight, which is an
// argument here.
func referenceLinear(w, eec float64, tc int) float64 { return eec * (float64(tc) * w) / 100 }
func referenceFlat(w, eec float64, _ int) float64    { return eec * w / 100 }
func referenceZero(float64, float64, int) float64    { return 0 }

// referenceESC pairs each constructor with the decision and charged
// closures it built.
var referenceESC = []struct {
	name              string
	build             func(float64) (Policy, error)
	decision, charged func(w, eec float64, tc int) float64
}{
	{"TrustAware", TrustAware, referenceLinear, referenceLinear},
	{"TrustUnaware", TrustUnaware, referenceZero, referenceFlat},
	{"TrustBlind", TrustBlind, referenceZero, referenceLinear},
}

// TestESCMatchesReference requires every constructed policy to compute
// both of its security costs bit for bit as the constructor's closures
// did, on signed zeros, the smallest subnormal, huge and random EECs,
// every trust cost and the paper's, zero and random weights.
func TestESCMatchesReference(t *testing.T) {
	src := rng.New(31)
	eecs := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1, 1e300}
	for range 20 {
		eecs = append(eecs, src.Uniform(0, 1e4), math.Ldexp(src.Float64(), src.Intn(2000)-1000))
	}
	weights := []float64{0, DefaultTCWeight, DefaultFlatOverheadPct}
	for range 5 {
		weights = append(weights, src.Uniform(0, 100))
	}
	for _, ref := range referenceESC {
		for _, w := range weights {
			p, err := ref.build(w)
			if err != nil {
				t.Fatalf("%s(%g): %v", ref.name, w, err)
			}
			for _, eec := range eecs {
				for tc := 0; tc <= 6; tc++ {
					for _, view := range []struct {
						name      string
						got, want float64
					}{
						{"decision", p.Decision().Cost(eec, tc), ref.decision(w, eec, tc)},
						{"charged", p.Charged().Cost(eec, tc), ref.charged(w, eec, tc)},
					} {
						if math.Float64bits(view.got) != math.Float64bits(view.want) {
							t.Fatalf("%s(%g) %s ESC(%g, %d) = %v (%#x), closure %v (%#x)", ref.name, w, view.name, eec, tc,
								view.got, math.Float64bits(view.got), view.want, math.Float64bits(view.want))
						}
					}
				}
			}
		}
	}
}
