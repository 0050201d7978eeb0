package core

import (
	"fmt"
	"math"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
)

// The decision path as it stood before pricing went per resource domain,
// kept as the executable reference for TestSubmitMatchesPerMachineReference:
// copy the whole table, then price machine by machine through linear
// topology scans, one fuser call per machine, a per-machine TC and OTL
// array per task.  refSubmitBatch differs from that parent in the two
// defects the shared path removed: it consults the fuser and it sets
// Placement.MachineIdx, exactly as refSubmit always did.

// refMachineRD is the linear-scan Topology.MachineRD.
func refMachineRD(top *grid.Topology, id grid.MachineID) (*grid.ResourceDomain, error) {
	for _, m := range top.Machines() {
		if m.ID == id {
			for _, rd := range top.ResourceDomains() {
				if rd.ID == m.RD {
					return rd, nil
				}
			}
			return nil, fmt.Errorf("grid: machine %d references unknown RD %d", id, m.RD)
		}
	}
	return nil, fmt.Errorf("grid: unknown machine %d", id)
}

// refClientCD is the linear-scan Topology.ClientCD.
func refClientCD(top *grid.Topology, id grid.ClientID) (*grid.ClientDomain, error) {
	for _, c := range top.Clients() {
		if c.ID == id {
			for _, cd := range top.ClientDomains() {
				if cd.ID == c.CD {
					return cd, nil
				}
			}
			return nil, fmt.Errorf("grid: client %d references unknown CD %d", id, c.CD)
		}
	}
	return nil, fmt.Errorf("grid: unknown client %d", id)
}

func refSubmit(t *TRMS, task Task, now float64) (*Placement, error) {
	top := t.cfg.Topology
	machines := top.Machines()
	if len(task.EEC) != len(machines) {
		return nil, fmt.Errorf("core: task has %d EEC entries for %d machines",
			len(task.EEC), len(machines))
	}
	if len(task.ToA.Activities) == 0 {
		return nil, fmt.Errorf("core: task has an empty ToA")
	}
	if !task.RTL.Valid() {
		return nil, fmt.Errorf("core: task RTL %v invalid", task.RTL)
	}
	cd, err := refClientCD(top, task.Client)
	if err != nil {
		return nil, err
	}

	snap := t.table.Replica()
	tcs := make([]int, len(machines))
	otls := make([]grid.TrustLevel, len(machines))
	eligible := false
	for m, machine := range machines {
		rd, err := refMachineRD(top, machine.ID)
		if err != nil {
			return nil, err
		}
		if !rd.Supports(task.ToA) {
			tcs[m] = -1 // ineligible marker
			continue
		}
		otl, err := snap.OTL(cd.ID, rd.ID, task.ToA)
		if err != nil {
			return nil, err
		}
		if t.fuser != nil {
			otl = t.fuser.FuseOTL(cd.ID, rd.ID, task.ToA, otl)
		}
		tc, err := grid.TrustCostWith(t.cfg.ETSRule, task.RTL, rd.RTL, otl)
		if err != nil {
			return nil, err
		}
		tcs[m], otls[m] = tc, otl
		eligible = true
	}
	if !eligible {
		return nil, fmt.Errorf("core: no resource domain supports ToA %v", task.ToA)
	}

	costs := &refSubmitCosts{eec: task.EEC, tc: tcs}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("core: TRMS is closed")
	}
	avail := t.currentAvail(now)
	asg, err := t.cfg.Heuristic.AssignOne(costs, t.policy, 0, avail)
	if err != nil {
		return nil, err
	}
	m := asg.Machine
	if tcs[m] < 0 {
		return nil, fmt.Errorf("core: heuristic chose ineligible machine %d", m)
	}
	machine := machines[m]
	rd, err := refMachineRD(top, machine.ID)
	if err != nil {
		return nil, err
	}
	eec := task.EEC[m]
	esc := t.policy.Charged().Cost(eec, tcs[m])
	start := avail[m]
	finish := start + eec + esc
	t.freeTime[m] = finish
	t.placed++
	return &Placement{
		Machine:    machine,
		MachineIdx: m,
		RD:         rd.ID,
		CD:         cd.ID,
		OTL:        otls[m],
		TC:         tcs[m],
		EEC:        eec,
		ESC:        esc,
		ECC:        eec + esc,
		Start:      start,
		Finish:     finish,
	}, nil
}

// refSubmitCosts serves the reference's per-machine arrays as rows over
// the identity index: a machine whose RD does not support the ToA costs
// +Inf to run at trust cost 0.
type refSubmitCosts struct {
	eec []float64
	tc  []int
}

func (c *refSubmitCosts) NumRequests() int { return 1 }
func (c *refSubmitCosts) MachineIndex() []int32 {
	return identity(len(c.eec))
}
func (c *refSubmitCosts) CostRows(int) ([]float64, []int, error) {
	eec, tc := make([]float64, len(c.eec)), make([]int, len(c.tc))
	for m := range eec {
		eec[m], tc[m] = c.eec[m], max(c.tc[m], 0)
		if c.tc[m] < 0 {
			eec[m] = math.Inf(1)
		}
	}
	return eec, tc, nil
}

// identity is the machine index of a per-machine instance.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for m := range idx {
		idx[m] = int32(m)
	}
	return idx
}

func refSubmitBatch(t *TRMS, tasks []Task, h sched.Batch, now float64) ([]*Placement, error) {
	if h == nil {
		return nil, fmt.Errorf("core: nil batch heuristic")
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}
	top := t.cfg.Topology
	machines := top.Machines()
	nm := len(machines)

	snap := t.table.Replica()
	eec := make([][]float64, len(tasks))
	tcs := make([][]int, len(tasks))
	otls := make([][]grid.TrustLevel, len(tasks))
	cds := make([]grid.DomainID, len(tasks))
	for i, task := range tasks {
		if len(task.EEC) != nm {
			return nil, fmt.Errorf("core: batch task %d has %d EEC entries for %d machines",
				i, len(task.EEC), nm)
		}
		if len(task.ToA.Activities) == 0 {
			return nil, fmt.Errorf("core: batch task %d has an empty ToA", i)
		}
		if !task.RTL.Valid() {
			return nil, fmt.Errorf("core: batch task %d RTL %v invalid", i, task.RTL)
		}
		cd, err := refClientCD(top, task.Client)
		if err != nil {
			return nil, fmt.Errorf("core: batch task %d: %w", i, err)
		}
		cds[i] = cd.ID
		eec[i] = make([]float64, nm)
		tcs[i] = make([]int, nm)
		otls[i] = make([]grid.TrustLevel, nm)
		eligible := false
		for m, machine := range machines {
			rd, err := refMachineRD(top, machine.ID)
			if err != nil {
				return nil, err
			}
			if !rd.Supports(task.ToA) {
				eec[i][m] = math.Inf(1)
				tcs[i][m] = -1
				continue
			}
			otl, err := snap.OTL(cd.ID, rd.ID, task.ToA)
			if err != nil {
				return nil, err
			}
			if t.fuser != nil {
				otl = t.fuser.FuseOTL(cd.ID, rd.ID, task.ToA, otl)
			}
			tc, err := grid.TrustCostWith(t.cfg.ETSRule, task.RTL, rd.RTL, otl)
			if err != nil {
				return nil, err
			}
			eec[i][m] = task.EEC[m]
			tcs[i][m] = tc
			otls[i][m] = otl
			eligible = true
		}
		if !eligible {
			return nil, fmt.Errorf("core: batch task %d: no resource domain supports ToA %v", i, task.ToA)
		}
	}

	costs := &refBatchCosts{eec: eec, tc: tcs}
	reqs := make([]int, len(tasks))
	for i := range reqs {
		reqs[i] = i
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("core: TRMS is closed")
	}
	avail := t.currentAvail(now)
	as, err := h.AssignBatchInto(costs, t.policy, reqs, avail, nil)
	if err != nil {
		return nil, err
	}
	if len(as) != len(tasks) {
		return nil, fmt.Errorf("core: heuristic mapped %d of %d batch tasks", len(as), len(tasks))
	}
	for _, a := range as {
		if tcs[a.Req][a.Machine] < 0 {
			return nil, fmt.Errorf("core: heuristic placed batch task %d on ineligible machine %d",
				a.Req, a.Machine)
		}
	}
	placements := make([]*Placement, len(tasks))
	for _, a := range as {
		i, m := a.Req, a.Machine
		machine := machines[m]
		rd, err := refMachineRD(top, machine.ID)
		if err != nil {
			return nil, err
		}
		e := eec[i][m]
		esc := t.policy.Charged().Cost(e, tcs[i][m])
		start := math.Max(t.freeTime[m], now)
		finish := start + e + esc
		t.freeTime[m] = finish
		t.placed++
		placements[i] = &Placement{
			Machine:    machine,
			MachineIdx: m,
			RD:         rd.ID,
			CD:         cds[i],
			OTL:        otls[i][m],
			TC:         tcs[i][m],
			EEC:        e,
			ESC:        esc,
			ECC:        e + esc,
			Start:      start,
			Finish:     finish,
		}
	}
	return placements, nil
}

// refBatchCosts is refSubmitCosts for a batch: eec is already +Inf where
// tc is -1.
type refBatchCosts struct {
	eec [][]float64
	tc  [][]int
}

func (c *refBatchCosts) NumRequests() int      { return len(c.eec) }
func (c *refBatchCosts) MachineIndex() []int32 { return identity(len(c.eec[0])) }
func (c *refBatchCosts) CostRows(r int) ([]float64, []int, error) {
	tc := make([]int, len(c.tc[r]))
	for m, v := range c.tc[r] {
		tc[m] = max(v, 0)
	}
	return c.eec[r], tc, nil
}
