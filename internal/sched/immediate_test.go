package sched

import (
	"math"
	"testing"
)

// zeroTC builds a MatrixCosts with all trust costs zero so decision costs
// reduce to plain EEC under any policy.
func zeroTC(t *testing.T, exec [][]float64) *MatrixCosts {
	t.Helper()
	c, err := NewMatrixCosts(exec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func withTC(t *testing.T, exec [][]float64, tc [][]int) *MatrixCosts {
	t.Helper()
	c, err := NewMatrixCosts(exec, tc)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var aware = MustTrustAware(DefaultTCWeight)
var unaware = MustTrustUnaware(DefaultFlatOverheadPct)

func TestMCTPicksEarliestCompletion(t *testing.T) {
	c := zeroTC(t, [][]float64{{3, 5}})
	a, err := MCT{}.AssignOne(c, aware, 0, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 0 || a.DecisionCompletion != 3 {
		t.Fatalf("MCT chose machine %d done %g, want 0/3", a.Machine, a.DecisionCompletion)
	}
	// Loaded machine 0 flips the choice: 4+3=7 vs 0+5=5.
	a, err = MCT{}.AssignOne(c, aware, 0, []float64{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 1 || a.DecisionCompletion != 5 {
		t.Fatalf("MCT chose machine %d done %g, want 1/5", a.Machine, a.DecisionCompletion)
	}
}

func TestMCTTrustAwareAvoidsCostlyTrust(t *testing.T) {
	// Machine 0 is faster raw but carries TC=6 (+90%); machine 1 is
	// slower but fully trusted.  Aware must pick machine 1, unaware
	// machine 0.
	c := withTC(t, [][]float64{{100, 120}}, [][]int{{6, 0}})
	avail := []float64{0, 0}
	aw, err := MCT{}.AssignOne(c, aware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if aw.Machine != 1 {
		t.Fatalf("aware MCT chose machine %d, want 1 (ECC 190 vs 120)", aw.Machine)
	}
	un, err := MCT{}.AssignOne(c, unaware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if un.Machine != 0 {
		t.Fatalf("unaware MCT chose machine %d, want 0 (sees raw 100 vs 120)", un.Machine)
	}
}

// TestMCTPerStepOptimality encodes the theorem's base case: among all
// machines, the trust-aware MCT choice minimises charged ECC + avail.
func TestMCTPerStepOptimality(t *testing.T) {
	c := withTC(t,
		[][]float64{{10, 20, 30}, {30, 20, 10}, {15, 15, 15}},
		[][]int{{6, 3, 0}, {0, 3, 6}, {1, 2, 3}})
	avail := []float64{5, 0, 2}
	for r := 0; r < 3; r++ {
		a, err := MCT{}.AssignOne(c, aware, r, avail)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ChargedECC(c, aware, r, a.Machine)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 3; m++ {
			alt, err := ChargedECC(c, aware, r, m)
			if err != nil {
				t.Fatal(err)
			}
			if avail[m]+alt < avail[a.Machine]+got-1e-12 {
				t.Fatalf("request %d: machine %d beats chosen %d", r, m, a.Machine)
			}
		}
	}
}

func TestMETIgnoresLoad(t *testing.T) {
	c := zeroTC(t, [][]float64{{3, 5}})
	a, err := MET{}.AssignOne(c, aware, 0, []float64{1000, 0})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 0 {
		t.Fatalf("MET chose machine %d, want 0 despite load", a.Machine)
	}
	if a.DecisionCompletion != 1003 {
		t.Fatalf("MET decision completion %g, want 1003", a.DecisionCompletion)
	}
}

func TestOLBIgnoresCost(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 1000}})
	a, err := OLB{}.AssignOne(c, aware, 0, []float64{5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 1 {
		t.Fatalf("OLB chose machine %d, want the least-loaded 1", a.Machine)
	}
}

func TestKPBBoundaries(t *testing.T) {
	exec := [][]float64{{10, 20, 30, 40}}
	c := zeroTC(t, exec)
	avail := []float64{100, 0, 0, 0}

	// KPB(100) == MCT.
	full, err := KPB{Percent: 100}.AssignOne(c, aware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	mct, err := MCT{}.AssignOne(c, aware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if full.Machine != mct.Machine {
		t.Fatalf("KPB(100) chose %d, MCT chose %d", full.Machine, mct.Machine)
	}

	// KPB(25) on 4 machines considers only the single best-exec machine
	// (machine 0), i.e. behaves like MET.
	quarter, err := KPB{Percent: 25}.AssignOne(c, aware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if quarter.Machine != 0 {
		t.Fatalf("KPB(25) chose %d, want the MET machine 0", quarter.Machine)
	}

	if _, err := (KPB{Percent: 0}).AssignOne(c, aware, 0, avail); err == nil {
		t.Fatal("KPB accepted percent 0")
	}
	if _, err := (KPB{Percent: 150}).AssignOne(c, aware, 0, avail); err == nil {
		t.Fatal("KPB accepted percent 150")
	}
}

func TestKPBMiddleGround(t *testing.T) {
	// Machines ranked by exec: m0(10), m1(20), m2(30), m3(40).  KPB(50)
	// considers {m0, m1}; with m0 heavily loaded it must pick m1 even
	// though m2 would finish sooner.
	c := zeroTC(t, [][]float64{{10, 20, 30, 40}})
	avail := []float64{100, 50, 0, 0}
	a, err := KPB{Percent: 50}.AssignOne(c, aware, 0, avail)
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 1 {
		t.Fatalf("KPB(50) chose %d, want 1", a.Machine)
	}
}

func TestSASwitchesRegimes(t *testing.T) {
	sa, err := NewSA(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c := zeroTC(t, [][]float64{{10, 100}})
	// Balanced system (ratio 1 >= 0.9): SA should behave like MET.
	a, err := sa.AssignOne(c, aware, 0, []float64{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 0 {
		t.Fatalf("balanced SA chose %d, want MET machine 0", a.Machine)
	}
	// Badly imbalanced (ratio 10/100 <= 0.5): SA switches to MCT;
	// 100+10=110 vs 10+100=110 tie -> machine 0... make it decisive:
	a, err = sa.AssignOne(c, aware, 0, []float64{200, 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 1 {
		t.Fatalf("imbalanced SA chose %d, want MCT machine 1", a.Machine)
	}
	if _, err := NewSA(0.9, 0.5); err == nil {
		t.Fatal("NewSA accepted inverted thresholds")
	}
	if _, err := NewSA(-0.1, 0.5); err == nil {
		t.Fatal("NewSA accepted negative threshold")
	}
}

// TestSAIgnoresMaskedMachines takes SA's balance index over the machines
// that are up: 45/50 among them is balanced, so SA runs MET (machine 0),
// where MCT would pick machine 1 (45+14 < 50+10).
func TestSAIgnoresMaskedMachines(t *testing.T) {
	sa, err := NewSA(0.5, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	c := zeroTC(t, [][]float64{{10, 14, 1}})
	a, err := sa.AssignOne(c, aware, 0, []float64{50, 45, Masked()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Machine != 0 {
		t.Fatalf("SA chose %d with a machine down, want MET machine 0", a.Machine)
	}
}

// TestPolicyConstructorsRejectNonFinite: a NaN or infinite weight makes
// every cost NaN or +Inf, so no machine would ever win a comparison.
func TestPolicyConstructorsRejectNonFinite(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := TrustAware(w); err == nil {
			t.Errorf("TrustAware accepted weight %g", w)
		}
		if _, err := TrustUnaware(w); err == nil {
			t.Errorf("TrustUnaware accepted overhead %g", w)
		}
		if _, err := TrustBlind(w); err == nil {
			t.Errorf("TrustBlind accepted weight %g", w)
		}
	}
}

func TestImmediateByName(t *testing.T) {
	for _, name := range []string{"mct", "met", "olb", "kpb", "sa"} {
		h, err := ImmediateByName(name)
		if err != nil || h == nil {
			t.Errorf("ImmediateByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ImmediateByName("nope"); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestImmediateValidation(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 2}})
	if _, err := (MCT{}).AssignOne(nil, aware, 0, []float64{0, 0}); err == nil {
		t.Error("accepted nil costs")
	}
	if _, err := (MCT{}).AssignOne(c, Policy{}, 0, []float64{0, 0}); err == nil {
		t.Error("accepted empty policy")
	}
	if _, err := (MCT{}).AssignOne(c, aware, 0, []float64{0}); err == nil {
		t.Error("accepted short availability vector")
	}
}

func TestNewMatrixCostsValidation(t *testing.T) {
	if _, err := NewMatrixCosts(nil, nil); err == nil {
		t.Error("accepted nil exec")
	}
	if _, err := NewMatrixCosts([][]float64{{1, 2}, {3}}, nil); err == nil {
		t.Error("accepted ragged exec")
	}
	if _, err := NewMatrixCosts([][]float64{{-1}}, nil); err == nil {
		t.Error("accepted negative EEC")
	}
	if _, err := NewMatrixCosts([][]float64{{1}}, [][]int{{7}}); err == nil {
		t.Error("accepted TC > 6")
	}
	if _, err := NewMatrixCosts([][]float64{{1}}, [][]int{{1}, {2}}); err == nil {
		t.Error("accepted TC/EEC row mismatch")
	}
	if _, err := NewMatrixCosts([][]float64{{1, 2}}, [][]int{{1}}); err == nil {
		t.Error("accepted ragged TC")
	}
}

func TestPolicyESCFormulas(t *testing.T) {
	// Paper Section 4.1: aware ESC = EEC*(TC*15)/100, unaware = EEC*50/100.
	eec := 200.0
	for tc := 0; tc <= 6; tc++ {
		want := eec * float64(tc) * 15 / 100
		if got := aware.Decision().Cost(eec, tc); math.Abs(got-want) > 1e-12 {
			t.Errorf("aware ESC(tc=%d) = %g, want %g", tc, got, want)
		}
		if got := aware.Charged().Cost(eec, tc); math.Abs(got-want) > 1e-12 {
			t.Errorf("aware charged ESC(tc=%d) = %g, want %g", tc, got, want)
		}
		if got := unaware.Decision().Cost(eec, tc); got != 0 {
			t.Errorf("unaware decision ESC = %g, want 0", got)
		}
		if got := unaware.Charged().Cost(eec, tc); got != 100 {
			t.Errorf("unaware charged ESC = %g, want 100", got)
		}
	}
	// Average TC of 3 gives 45% vs the flat 50% — the paper's calibration.
	if got := aware.Charged().Cost(eec, 3); got != 0.45*eec {
		t.Errorf("aware ESC at mean TC = %g, want 45%% of EEC", got)
	}
	blind := MustTrustBlind(DefaultTCWeight)
	if blind.Decision().Cost(eec, 6) != 0 {
		t.Error("blind decision ESC should be 0")
	}
	if blind.Charged().Cost(eec, 6) != aware.Charged().Cost(eec, 6) {
		t.Error("blind charged ESC should match aware")
	}
}

func TestPolicyConstructorsReject(t *testing.T) {
	if _, err := TrustAware(-1); err == nil {
		t.Error("TrustAware accepted negative weight")
	}
	if _, err := TrustUnaware(-1); err == nil {
		t.Error("TrustUnaware accepted negative overhead")
	}
	if _, err := TrustBlind(-1); err == nil {
		t.Error("TrustBlind accepted negative weight")
	}
}
