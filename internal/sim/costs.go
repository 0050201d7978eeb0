// Package sim orchestrates the paper's discrete-event experiments
// (Section 5.3): it materialises workloads, drives the immediate- and
// batch-mode TRM schedulers over the DES kernel, collects the metrics of
// Tables 4-9 (average completion time, machine utilization), and runs
// paired trust-aware vs trust-unaware comparisons across many seeded
// replications in a parallel worker pool.
package sim

import (
	"fmt"
	"slices"

	"gridtrust/internal/grid"
	"gridtrust/internal/workload"
)

// workloadCosts adapts a workload.Workload to sched.Costs.
//
// Trust is kept between domains: a trust cost is a function of the
// request's profile (CD, RTL, ToA) and the machine's resource domain,
// never of the machine itself.  The adapter stores exactly that function
// — one row of #RDs costs per distinct profile, plus the machine → RD
// slot map — and never expands it over machines, so its memory is
// O(profiles × RDs + machines) and building it reads the table once per
// (CD, activity, RD).  A 1M-request stream carries at most
// |CDs| × |RTLs| × |ordered ToAs| profiles (4 × 6 × 205 = 4920 in the
// paper's configuration).
type workloadCosts struct {
	w *workload.Workload

	// Resource-domain slots: the RDs that own a machine, numbered densely
	// in order of first appearance in w.MachineRD.
	rdOf    []int32           // machine -> slot
	slotRD  []grid.DomainID   // slot -> resource domain
	slotAt  []int32           // slot -> its first machine
	slotLen []int32           // slot -> number of machines
	slotRTL []grid.TrustLevel // slot -> its resource domain's RTL

	// Request profiles: requests with the same (CD, RTL, ordered ToA)
	// share a row.  The table ignores activity order (OTL is a min over
	// activities) but a trust model's context is the ToA's rendering,
	// which keeps it, so one key serves the table and modelView alike.
	tc      []int   // TC per (profile, slot), row stride len(slotRD)
	otl     []int8  // the table's OTL per (profile, slot), same stride (A-E fit a byte)
	rowOf   []int32 // request -> profile
	rowReq  []int32 // profile -> its first request
	rowSize []int32 // profile -> number of requests
	ctxOf   []int32 // profile -> its context: distinct ordered ToAs, numbered by first appearance
}

// chains numbers keys in order of first appearance by a 64-bit hash,
// chaining keys whose hashes collide for the caller to tell apart.
type chains struct {
	head map[uint64]int32 // hash -> its latest key + 1
	next []int32          // key -> the previous key of its hash, or -1
}

// find returns the key of hash h for which same reports true, or adds
// one and returns it with added set.
func (t *chains) find(h uint64, same func(k int32) bool) (k int32, added bool) {
	last := t.head[h] - 1
	for k = last; k >= 0; k = t.next[k] {
		if same(k) {
			return k, false
		}
	}
	k = int32(len(t.next))
	t.next = append(t.next, last)
	t.head[h] = k + 1
	return k, true
}

// mix folds v into an FNV-1a hash.
func mix(h uint64, v int) uint64 { return (h ^ uint64(v)) * 1099511628211 }

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
	profiles := chains{make(map[uint64]int32, hint), make([]int32, 0, hint)}
	c.tc = make([]int, 0, hint*len(c.slotRD))
	c.otl = make([]int8, 0, hint*len(c.slotRD))
	c.rowReq = make([]int32, 0, hint)
	c.rowSize = make([]int32, 0, hint)
	c.ctxOf = make([]int32, 0, hint)
	// lvl holds the table's level per (CD, built-in activity, slot),
	// LevelNone for a gap, read once; a profile's OTL on a slot is the min
	// over its activities (Section 3.1).  A profile with a gap, an empty
	// ToA, or a CD or activity outside lvl is priced cell by cell, which
	// fails on the first bad cell with the table's own error.
	acts, slots := int(grid.NumBuiltinActivities), len(c.slotRD)
	lvl := make([]grid.TrustLevel, max(w.NumCDs, 0)*acts*slots)
	for k := range lvl {
		lvl[k], _ = w.Table.Get(grid.DomainID(k/slots/acts), c.slotRD[k%slots], grid.Activity(k/slots%acts))
	}
	otl, rtl := make([]grid.TrustLevel, slots), make([]grid.TrustLevel, slots)
	for s, rd := range c.slotRD {
		rtl[s] = w.ResourceRTL[rd]
	}
	c.slotRTL = rtl
	offered := func(r *workload.Request) bool {
		for k, a := range r.ToA.Activities {
			if r.CD < 0 || int(r.CD) >= w.NumCDs || a < 0 || int(a) >= acts {
				return false
			}
			for s, tl := range lvl[(int(r.CD)*acts+int(a))*slots:][:slots] {
				if tl == grid.LevelNone {
					return false
				}
				if k == 0 || tl < otl[s] {
					otl[s] = tl
				}
			}
		}
		return len(r.ToA.Activities) > 0
	}
	// A profile is interned by a hash of its activities, CD and RTL, and
	// checked against its row's first request; a new profile's context by
	// the activities' hash, checked against its first request.
	ctxs := chains{make(map[uint64]int32, hint), make([]int32, 0, hint)}
	ctxReq := make([]int32, 0, hint) // context -> its first request
	for i := range w.Requests {
		r := w.Requests[i]
		acts, h := r.ToA.Activities, uint64(14695981039346656037)
		for _, a := range acts {
			h = mix(h, int(a))
		}
		j, added := profiles.find(mix(mix(h, int(r.CD)), int(r.ClientRTL)), func(k int32) bool {
			q := &w.Requests[c.rowReq[k]]
			return q.CD == r.CD && q.ClientRTL == r.ClientRTL && slices.Equal(q.ToA.Activities, acts)
		})
		if added {
			ctx, added := ctxs.find(h, func(k int32) bool { return slices.Equal(w.Requests[ctxReq[k]].ToA.Activities, acts) })
			if added {
				ctxReq = append(ctxReq, int32(i))
			}
			c.ctxOf = append(c.ctxOf, ctx)
			dense := offered(&r)
			for s, rd := range c.slotRD {
				// Cell by cell this is w.TrustCostRD(r, rd), keeping the OTL.
				var err error
				if !dense {
					otl[s], err = w.Table.OTL(r.CD, rd, r.ToA)
				}
				v := 0
				if err == nil {
					v, err = grid.TrustCostWith(w.Spec.ETSRule, r.ClientRTL, rtl[s], otl[s])
				}
				if err != nil {
					return nil, fmt.Errorf("sim: trust cost for request %d on machine %d: %w", i, c.slotAt[s], err)
				}
				c.tc = append(c.tc, v)
				c.otl = append(c.otl, int8(otl[s]))
			}
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

// MachineIndex returns the machine → RD slot map.
func (c *workloadCosts) MachineIndex() []int32 { return c.rdOf }

// CostRows returns request r's EEC row and its trust costs per RD slot.
func (c *workloadCosts) CostRows(r int) ([]float64, []int, error) {
	return c.eecRow(r), c.tcRow(r), nil
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
	return float64(sum) / float64(len(c.rowOf)*len(c.rdOf))
}
