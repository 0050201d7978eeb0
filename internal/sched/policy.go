// Package sched implements the mapping heuristics of the paper (Section 4)
// and its reference [10] (Maheswaran, Ali, Siegel, Hensgen, Freund —
// "Dynamic mapping of a class of independent tasks onto heterogeneous
// computing systems"): the immediate-mode heuristics OLB, MET, MCT, KPB
// and SA, and the batch-mode heuristics Min-min, Max-min, Sufferage and
// Duplex.  Every heuristic runs either trust-aware or trust-unaware via a
// cost Policy.
//
// Cost vocabulary (Section 4.1):
//
//	EEC(M_i, t)  expected execution cost
//	ESC(M_i, t)  expected security cost
//	ECC = EEC + ESC   expected completion cost
//
// Trust-aware:   ESC = EEC × (TC × 15)/100, TC ∈ [0,6] from the ETS table.
// Trust-unaware: ESC = EEC × 50/100 — but the mapper does not see it:
// "the security overhead is not considered when mapping" (Section 5.3).
// A Policy therefore has two views: the Decision ESC the heuristic
// minimises, and the Charged ESC the simulator bills.
package sched

import (
	"fmt"
	"math"
)

// DefaultTCWeight is the paper's "arbitrarily chosen" weight of 15 for the
// trust cost: with TC averaging 3, trust-aware ESC averages 45% of EEC.
const DefaultTCWeight = 15.0

// DefaultFlatOverheadPct is the flat 50% security overhead charged when the
// RMS does not consider trust.
const DefaultFlatOverheadPct = 50.0

// Policy decides how security cost enters the mapping decision and the
// charged completion cost.  Build one with TrustAware, TrustUnaware or
// TrustBlind; every entry point rejects the zero Policy.
type Policy struct {
	// Name labels the policy in reports ("trust-aware"/"trust-unaware").
	Name string

	// decision is the security cost the heuristic sees when ranking
	// machines, charged the one incurred when the task runs.
	decision, charged ESC
}

// ESC is one closed-form security cost: a form and its weight.
type ESC struct {
	Form   ESCForm
	Weight float64
}

// ESCForm is the shape of an ESC.  The zero form is no form at all: it
// marks a Policy no constructor built.
type ESCForm int

const (
	// ESCZero: ESC = 0 (the decision view of unaware/blind policies).
	ESCZero ESCForm = iota + 1
	// ESCLinear: ESC = eec * (float64(tc) * weight) / 100.
	ESCLinear
	// ESCFlat: ESC = eec * weight / 100, independent of TC.
	ESCFlat
)

// Cost returns the security cost of a task with execution cost eec and
// trust cost tc.  Hot loops that hoist a factor out of their machine
// loop (kernelState.fillRow, the simulator's MCT scan) keep this
// parenthesisation, so every path rounds identically.
func (e ESC) Cost(eec float64, tc int) float64 {
	switch e.Form {
	case ESCLinear:
		return eec * (float64(tc) * e.Weight) / 100
	case ESCFlat:
		return eec * e.Weight / 100
	}
	return 0
}

// Decision returns the security cost the heuristic minimises.
func (p Policy) Decision() ESC { return p.decision }

// Charged returns the security cost the system pays.
func (p Policy) Charged() ESC { return p.charged }

// Validate rejects a Policy no constructor built.
func (p Policy) Validate() error {
	if p.decision.Form == 0 || p.charged.Form == 0 {
		return fmt.Errorf("sched: policy %q has no ESC form; build it with TrustAware, TrustUnaware or TrustBlind", p.Name)
	}
	return nil
}

// checkWeight rejects a weight that would make every cost negative, NaN
// or +Inf.
func checkWeight(what string, w float64) error {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("sched: %s %g is not a finite non-negative number", what, w)
	}
	return nil
}

// TrustAware returns the paper's trust-aware policy with the given TC
// weight (use DefaultTCWeight for the paper's 15).  Decision and charged
// costs coincide: the scheduler optimises the cost the system pays.
func TrustAware(tcWeight float64) (Policy, error) {
	if err := checkWeight("TC weight", tcWeight); err != nil {
		return Policy{}, err
	}
	esc := ESC{ESCLinear, tcWeight}
	return Policy{Name: "trust-aware", decision: esc, charged: esc}, nil
}

// TrustUnaware returns the paper's trust-unaware policy: the mapper ignores
// security entirely (decision ESC = 0) while the system pays a flat
// overhead of flatPct percent of EEC on every task.
func TrustUnaware(flatPct float64) (Policy, error) {
	if err := checkWeight("flat overhead", flatPct); err != nil {
		return Policy{}, err
	}
	return Policy{Name: "trust-unaware", decision: ESC{Form: ESCZero}, charged: ESC{ESCFlat, flatPct}}, nil
}

// TrustBlind returns the policy of the paper's Section 5.2 theorem: the
// mapper ignores security (decision ESC = 0) but the system is charged the
// *same* TC-based ESC a trust-aware run would pay.  This isolates the value
// of informed placement: both policies pay identical per-pair costs, and
// only the assignment differs.  The theorem — trust-aware makespan <=
// trust-unaware makespan under the same heuristic — is stated in exactly
// this setting (both makespans sum EEC + ESC over the chosen mapping).
func TrustBlind(tcWeight float64) (Policy, error) {
	if err := checkWeight("TC weight", tcWeight); err != nil {
		return Policy{}, err
	}
	return Policy{Name: "trust-blind", decision: ESC{Form: ESCZero}, charged: ESC{ESCLinear, tcWeight}}, nil
}

// MustTrustBlind is the panicking form of TrustBlind.
func MustTrustBlind(tcWeight float64) Policy {
	p, err := TrustBlind(tcWeight)
	if err != nil {
		panic(err)
	}
	return p
}

// MustTrustAware and MustTrustUnaware panic on invalid arguments; they are
// for statically valid literals in tests, examples and the bench harness.
func MustTrustAware(tcWeight float64) Policy {
	p, err := TrustAware(tcWeight)
	if err != nil {
		panic(err)
	}
	return p
}

// MustTrustUnaware is the panicking form of TrustUnaware.
func MustTrustUnaware(flatPct float64) Policy {
	p, err := TrustUnaware(flatPct)
	if err != nil {
		panic(err)
	}
	return p
}
