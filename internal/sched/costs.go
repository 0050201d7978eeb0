package sched

import "fmt"

// Costs abstracts the scheduling instance: execution costs and trust costs
// for every (request, machine) pair.  internal/sim adapts a
// workload.Workload; tests use MatrixCosts fixtures.
type Costs interface {
	// NumRequests and NumMachines give the instance dimensions.
	NumRequests() int
	NumMachines() int
	// EEC returns the expected execution cost of request r on machine m.
	EEC(r, m int) float64
	// TrustCost returns the paper's TC in [0,6] for request r on
	// machine m.
	TrustCost(r, m int) (int, error)
}

// RowCosts is an optional extension of Costs for instances whose trust
// cost depends on the machine only through a small index — in the paper a
// machine inherits the trust level of its resource domain, so a row of M
// machines holds only #RDs distinct trust costs.  The batch kernels read
// whole rows through it instead of calling EEC and TrustCost per cell.
type RowCosts interface {
	Costs
	// MachineIndex returns the machine → index map, one entry per machine
	// and the same for every request.
	MachineIndex() []int32
	// CostRows returns request r's EEC row (one entry per machine) and
	// its distinct trust costs, so that EEC(r, m) == eec[m] and
	// TrustCost(r, m) == tcs[MachineIndex()[m]].
	//
	// The slices of both methods are read-only and valid until the
	// instance changes.  The kernels check their shape once per batch —
	// every index non-negative and inside every tcs — and fail with an
	// error, as the per-cell path does when TrustCost fails.
	CostRows(r int) (eec []float64, tcs []int)
}

// MatrixCosts is a concrete Costs backed by dense matrices.
type MatrixCosts struct {
	Exec [][]float64 // [request][machine]
	TC   [][]int     // [request][machine]; nil means all zero
}

// NewMatrixCosts validates and wraps the given matrices.  tc may be nil
// (all trust costs zero).
func NewMatrixCosts(exec [][]float64, tc [][]int) (*MatrixCosts, error) {
	if len(exec) == 0 || len(exec[0]) == 0 {
		return nil, fmt.Errorf("sched: empty cost matrix")
	}
	machines := len(exec[0])
	for i, row := range exec {
		if len(row) != machines {
			return nil, fmt.Errorf("sched: ragged EEC matrix at row %d", i)
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("sched: negative EEC at (%d,%d)", i, j)
			}
		}
	}
	if tc != nil {
		if len(tc) != len(exec) {
			return nil, fmt.Errorf("sched: TC matrix has %d rows, EEC has %d", len(tc), len(exec))
		}
		for i, row := range tc {
			if len(row) != machines {
				return nil, fmt.Errorf("sched: ragged TC matrix at row %d", i)
			}
			for j, v := range row {
				if v < 0 || v > 6 {
					return nil, fmt.Errorf("sched: TC %d at (%d,%d) outside [0,6]", v, i, j)
				}
			}
		}
	}
	return &MatrixCosts{Exec: exec, TC: tc}, nil
}

// NumRequests returns the number of requests in the instance.
func (c *MatrixCosts) NumRequests() int { return len(c.Exec) }

// NumMachines returns the number of machines in the instance.
func (c *MatrixCosts) NumMachines() int { return len(c.Exec[0]) }

// EEC returns the execution cost of request r on machine m.
func (c *MatrixCosts) EEC(r, m int) float64 { return c.Exec[r][m] }

// TrustCost returns the trust cost of request r on machine m.
func (c *MatrixCosts) TrustCost(r, m int) (int, error) {
	if c.TC == nil {
		return 0, nil
	}
	return c.TC[r][m], nil
}

// Assignment maps one request onto one machine.
type Assignment struct {
	Req     int
	Machine int
	// DecisionCompletion is the completion time (availability + decision
	// ECC) the heuristic believed when it committed the assignment.
	DecisionCompletion float64
}

// decisionECC computes the cost a heuristic minimises for (r,m) under the
// policy: EEC + its decision ESC.
func decisionECC(c Costs, p Policy, r, m int) (float64, error) {
	eec := c.EEC(r, m)
	tc, err := c.TrustCost(r, m)
	if err != nil {
		return 0, err
	}
	return eec + p.decision.Cost(eec, tc), nil
}

// ChargedECC computes the cost the system actually pays for (r,m) under
// the policy: EEC + its charged ESC, regardless of what the mapper
// believed.
func ChargedECC(c Costs, p Policy, r, m int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	eec := c.EEC(r, m)
	tc, err := c.TrustCost(r, m)
	if err != nil {
		return 0, err
	}
	return eec + p.charged.Cost(eec, tc), nil
}

// ChargedMakespan replays a schedule charging each assignment its charged
// ECC in sequence and returns the resulting makespan max_m(avail_m),
// mirroring the paper's Λ = max_m{α_m} with
// α_m = Σ_k [EEC + ESC]·X_km (Section 5.2).  The initial availability
// vector is not mutated.
func ChargedMakespan(c Costs, p Policy, as []Assignment, avail []float64) (float64, error) {
	if err := validateInstance(c, p, avail); err != nil {
		return 0, err
	}
	a := make([]float64, len(avail))
	copy(a, avail)
	for _, asg := range as {
		if asg.Machine < 0 || asg.Machine >= len(a) {
			return 0, fmt.Errorf("sched: assignment to unknown machine %d", asg.Machine)
		}
		ecc, err := ChargedECC(c, p, asg.Req, asg.Machine)
		if err != nil {
			return 0, err
		}
		a[asg.Machine] += ecc
	}
	ms := a[0]
	for _, v := range a[1:] {
		if v > ms {
			ms = v
		}
	}
	return ms, nil
}

// validateInstance checks common preconditions of heuristic entry points.
func validateInstance(c Costs, p Policy, avail []float64) error {
	if c == nil {
		return fmt.Errorf("sched: nil costs")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if c.NumMachines() <= 0 {
		return fmt.Errorf("sched: instance has no machines")
	}
	if len(avail) != c.NumMachines() {
		return fmt.Errorf("sched: availability vector has %d entries for %d machines",
			len(avail), c.NumMachines())
	}
	return nil
}
