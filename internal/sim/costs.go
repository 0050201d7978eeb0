// Package sim orchestrates the paper's discrete-event experiments
// (Section 5.3): it materialises workloads, drives the immediate- and
// batch-mode TRM schedulers over the DES kernel, collects the metrics of
// Tables 4-9 (average completion time, machine utilization), and runs
// paired trust-aware vs trust-unaware comparisons across many seeded
// replications in a parallel worker pool.
package sim

import (
	"encoding/binary"
	"fmt"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// workloadCosts adapts a workload.Workload to sched.Costs.
//
// Trust is kept between domains: a trust cost is a function of the
// request's profile (CD, RTL, ToA) and the machine's resource domain,
// never of the machine itself.  The adapter stores exactly that function
// — one row of #RDs costs per distinct profile, plus the machine → RD
// slot map — and never expands it over machines, so its memory is
// O(profiles × RDs + machines) and building it costs one table lookup
// per (profile, RD).  A 1M-request stream carries at most
// |CDs| × |RTLs| × |ordered ToAs| profiles (4 × 6 × 205 = 4920 in the
// paper's configuration).
type workloadCosts struct {
	w *workload.Workload

	// Resource-domain slots: the RDs that own a machine, numbered densely
	// in order of first appearance in w.MachineRD.
	rdOf    []int32         // machine -> slot
	slotRD  []grid.DomainID // slot -> resource domain
	slotAt  []int32         // slot -> its first machine
	slotLen []int32         // slot -> number of machines

	// Request profiles: requests with the same (CD, RTL, ordered ToA)
	// share a row.  The table ignores activity order (OTL is a min over
	// activities) but a trust model's context is the ToA's rendering,
	// which keeps it, so one key serves the table and modelView alike.
	tc      []int   // TC per (profile, slot), row stride len(slotRD)
	rowOf   []int32 // request -> profile
	rowReq  []int32 // profile -> its first request
	rowSize []int32 // profile -> number of requests
}

// newWorkloadCosts builds the adapter, surfacing any trust-table gaps as
// errors up front rather than mid-simulation.  Only resource domains that
// own a machine are priced, so a gap for an unused RD is not an error.
func newWorkloadCosts(w *workload.Workload) (*workloadCosts, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	nm := w.Spec.Machines
	if len(w.MachineRD) != nm {
		return nil, fmt.Errorf("sim: workload maps %d machines to resource domains, spec has %d", len(w.MachineRD), nm)
	}
	c := &workloadCosts{w: w, rdOf: make([]int32, nm), rowOf: make([]int32, len(w.Requests))}
	slotOf := make(map[grid.DomainID]int32)
	for m, rd := range w.MachineRD {
		s, ok := slotOf[rd]
		if !ok {
			s = int32(len(c.slotRD))
			slotOf[rd] = s
			c.slotRD = append(c.slotRD, rd)
			c.slotAt = append(c.slotAt, int32(m))
			c.slotLen = append(c.slotLen, 0)
		}
		c.rdOf[m] = s
		c.slotLen[s]++
	}
	// Few requests mostly carry distinct profiles, many requests repeat a
	// bounded set: size for the former, capped.
	hint := min(len(w.Requests), 1024)
	seen := make(map[string]int32, hint)
	c.tc = make([]int, 0, hint*len(c.slotRD))
	c.rowReq = make([]int32, 0, hint)
	c.rowSize = make([]int32, 0, hint)
	var key []byte
	for i := range w.Requests {
		r := w.Requests[i]
		key = binary.AppendVarint(key[:0], int64(r.CD))
		key = binary.AppendVarint(key, int64(r.ClientRTL))
		for _, a := range r.ToA.Activities {
			key = binary.AppendVarint(key, int64(a))
		}
		j, dup := seen[string(key)]
		if !dup {
			for s, rd := range c.slotRD {
				v, err := w.TrustCostRD(r, rd)
				if err != nil {
					return nil, fmt.Errorf("sim: trust cost for request %d on machine %d: %w", i, c.slotAt[s], err)
				}
				c.tc = append(c.tc, v)
			}
			j = int32(len(c.rowReq))
			seen[string(key)] = j
			c.rowReq = append(c.rowReq, int32(i))
			c.rowSize = append(c.rowSize, 0)
		}
		c.rowOf[i] = j
		c.rowSize[j]++
	}
	return c, nil
}

// NumRequests returns the instance's request count.
func (c *workloadCosts) NumRequests() int { return len(c.w.Requests) }

// NumMachines returns the instance's machine count.
func (c *workloadCosts) NumMachines() int { return c.w.Spec.Machines }

// EEC looks up the expected execution cost from the workload matrix; the
// request's TaskIndex selects the row.
func (c *workloadCosts) EEC(r, m int) float64 {
	return c.w.EEC.At(c.w.Requests[r].TaskIndex, m)
}

// eecRow returns request r's execution-cost row without copying (see
// Matrix.RowView); the fused scans walk it directly.
func (c *workloadCosts) eecRow(r int) []float64 {
	return c.w.EEC.RowView(c.w.Requests[r].TaskIndex)
}

// tcRow returns request r's trust costs per resource-domain slot (shared
// across requests with the same profile; read-only).  Machine m's cost is
// tcRow(r)[rdOf[m]].
func (c *workloadCosts) tcRow(r int) []int {
	j, slots := int(c.rowOf[r]), len(c.slotRD)
	return c.tc[j*slots : (j+1)*slots]
}

// checkIndex rejects an (r, m) outside the instance.
func (c *workloadCosts) checkIndex(r, m int) error {
	if r < 0 || r >= len(c.rowOf) || m < 0 || m >= len(c.rdOf) {
		return fmt.Errorf("sim: trust cost index (%d,%d) out of range", r, m)
	}
	return nil
}

// TrustCost returns the precomputed TC.
func (c *workloadCosts) TrustCost(r, m int) (int, error) {
	if err := c.checkIndex(r, m); err != nil {
		return 0, err
	}
	return c.tcRow(r)[c.rdOf[m]], nil
}

// pairGap is |a−b| counted once for every (request, machine) pair it
// stands for: n requests share the profile, slotLen[s] machines the slot.
// A trust-table error is the mean of these small integers over all pairs,
// so its sum is exact in any order.
func (c *workloadCosts) pairGap(a, b int, n int32, s int) int64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return int64(d) * int64(n) * int64(c.slotLen[s])
}

// meanGap divides a pairGap sum by the number of (request, machine) pairs.
func (c *workloadCosts) meanGap(sum int64) float64 {
	return float64(sum) / float64(c.NumRequests()*c.NumMachines())
}

// MachineIndex and CostRows implement sched.RowCosts.
func (c *workloadCosts) MachineIndex() []int32 { return c.rdOf }

func (c *workloadCosts) CostRows(r int) ([]float64, []int) {
	return c.eecRow(r), c.tcRow(r)
}

var _ sched.RowCosts = (*workloadCosts)(nil)
