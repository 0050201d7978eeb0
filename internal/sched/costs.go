package sched

import (
	"fmt"
	"math"
)

// Costs abstracts the scheduling instance as rows.  In the paper a
// machine inherits the trust level of its resource domain (Section 4.1),
// so a request's costs are one EEC per machine plus one trust cost per
// domain: machine m of request r runs for eec[m] at trust cost
// tcs[MachineIndex()[m]].  internal/sim adapts a workload.Workload,
// internal/core a priced decision; tests use MatrixCosts fixtures.
type Costs interface {
	// NumRequests gives the number of requests.
	NumRequests() int
	// MachineIndex returns the machine → index map, one entry per machine
	// and the same for every request; its length is the machine count.
	MachineIndex() []int32
	// CostRows returns request r's EEC row (one entry per machine) and its
	// trust costs in [0,6], one per index.
	//
	// The slices are read-only and valid until the instance changes.  The
	// heuristics check their shape — every index non-negative and inside
	// every tcs — and fail with an error, as they do when CostRows fails.
	CostRows(r int) (eec []float64, tcs []int, err error)
}

// MatrixCosts is a concrete Costs backed by dense matrices: every machine
// is its own index.  Build one with NewMatrixCosts.
type MatrixCosts struct {
	Exec [][]float64 // [request][machine]
	TC   [][]int     // [request][machine]; nil means all zero

	idx  []int32 // the identity
	zero []int   // every request's trust costs when TC is nil
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
			if !(v >= 0) || math.IsInf(v, 1) {
				return nil, fmt.Errorf("sched: EEC %v at (%d,%d) is not a finite cost >= 0", v, i, j)
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
	c := &MatrixCosts{Exec: exec, TC: tc, idx: make([]int32, machines)}
	for m := range c.idx {
		c.idx[m] = int32(m)
	}
	if tc == nil {
		c.zero = make([]int, machines)
	}
	return c, nil
}

// NumRequests returns the number of requests in the instance.
func (c *MatrixCosts) NumRequests() int { return len(c.Exec) }

// MachineIndex returns the identity: machine m's trust cost is TC[r][m].
func (c *MatrixCosts) MachineIndex() []int32 { return c.idx }

// CostRows returns request r's rows of the two matrices.
func (c *MatrixCosts) CostRows(r int) ([]float64, []int, error) {
	if c.TC == nil {
		return c.Exec[r], c.zero, nil
	}
	return c.Exec[r], c.TC[r], nil
}

// Assignment maps one request onto one machine.
type Assignment struct {
	Req     int
	Machine int
	// DecisionCompletion is the completion time (availability + decision
	// ECC) the heuristic believed when it committed the assignment.
	DecisionCompletion float64
}

// instance is a Costs whose machine index has been checked: one entry
// per machine, none negative, top the largest.
type instance struct {
	Costs
	idx []int32
	top int32
}

// checkInstance checks what every heuristic needs of its inputs: a valid
// policy, and costs whose machine index has one entry per machine of avail.
func checkInstance(c Costs, p Policy, avail []float64) (instance, error) {
	if err := p.Validate(); err != nil {
		return instance{}, err
	}
	in, err := newInstance(c)
	if err != nil {
		return instance{}, err
	}
	if len(avail) != len(in.idx) {
		return instance{}, fmt.Errorf("sched: availability vector has %d entries for %d machines",
			len(avail), len(in.idx))
	}
	return in, nil
}

// newInstance checks c's machine index.
func newInstance(c Costs) (instance, error) {
	if c == nil {
		return instance{}, fmt.Errorf("sched: nil costs")
	}
	idx := c.MachineIndex()
	if len(idx) == 0 {
		return instance{}, fmt.Errorf("sched: instance has no machines")
	}
	in := instance{Costs: c, idx: idx, top: -1}
	for m, s := range idx {
		if s < 0 {
			return instance{}, fmt.Errorf("sched: machine %d maps to trust-cost index %d", m, s)
		}
		in.top = max(in.top, s)
	}
	return in, nil
}

// costRow is one request's cost rows, checked against the machine index.
type costRow struct {
	eec []float64
	tcs []int
	idx []int32
}

// row reads request r's rows and checks their shape: one EEC per machine
// and a trust cost for every index.
func (in instance) row(r int) (costRow, error) {
	if n := in.NumRequests(); r < 0 || r >= n {
		return costRow{}, fmt.Errorf("sched: request index %d outside [0,%d)", r, n)
	}
	eec, tcs, err := in.CostRows(r)
	if err != nil {
		return costRow{}, err
	}
	if len(eec) != len(in.idx) || len(tcs) <= int(in.top) {
		return costRow{}, fmt.Errorf("sched: request %d has cost rows of %d/%d entries for %d machines over %d indices",
			r, len(eec), len(tcs), len(in.idx), in.top+1)
	}
	return costRow{eec, tcs, in.idx}, nil
}

// cost is the ECC of the row's request on machine m under one ESC: EEC +
// its ESC.  Under the policy's decision ESC it is what a heuristic
// minimises, under its charged ESC what the system pays.
func (row costRow) cost(e ESC, m int) float64 {
	eec := row.eec[m]
	return eec + e.Cost(eec, row.tcs[row.idx[m]])
}

// ChargedECC computes the cost the system actually pays for (r,m) under
// the policy: EEC + its charged ESC, regardless of what the mapper
// believed.
func ChargedECC(c Costs, p Policy, r, m int) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	in, err := newInstance(c)
	if err != nil {
		return 0, err
	}
	return in.charged(p, r, m)
}

// charged is ChargedECC on a checked instance.
func (in instance) charged(p Policy, r, m int) (float64, error) {
	if m < 0 || m >= len(in.idx) {
		return 0, fmt.Errorf("sched: assignment to unknown machine %d", m)
	}
	row, err := in.row(r)
	if err != nil {
		return 0, err
	}
	return row.cost(p.charged, m), nil
}

// ChargedMakespan replays a schedule charging each assignment its charged
// ECC in sequence and returns the resulting makespan max_m(avail_m),
// mirroring the paper's Λ = max_m{α_m} with
// α_m = Σ_k [EEC + ESC]·X_km (Section 5.2).  The initial availability
// vector is not mutated.
func ChargedMakespan(c Costs, p Policy, as []Assignment, avail []float64) (float64, error) {
	in, err := checkInstance(c, p, avail)
	if err != nil {
		return 0, err
	}
	a := make([]float64, len(avail))
	copy(a, avail)
	for _, asg := range as {
		ecc, err := in.charged(p, asg.Req, asg.Machine)
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
