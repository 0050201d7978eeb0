package core

import (
	"errors"
	"math"

	"gridtrust/internal/grid"
)

// pricedDomains fixes a topology's pricing geometry: the resource domains
// that own a machine, in first-machine order, and each machine's cell among
// them.  A domain without machines can host nothing, so it is never priced
// and a table gap on it is not an error.
func pricedDomains(top *grid.Topology) (priced []*grid.ResourceDomain, slot []int32) {
	rds := top.ResourceDomains()
	cell := make([]int32, len(rds)) // RD index -> cell+1, 0 while unseen
	slot = make([]int32, len(top.Machines()))
	for m, rd := range top.MachineSlots() {
		if cell[rd] == 0 {
			priced = append(priced, rds[rd])
			cell[rd] = int32(len(priced))
		}
		slot[m] = cell[rd] - 1
	}
	return priced, slot
}

// decisionCosts is one mapping decision, priced: a row per task, a cell
// per priced resource domain.  It is the sched.Costs instance the
// heuristic scans — machine m of task r reads cell slot[m] of row r, so
// the only per-machine data is the EEC row — and what commit reads a
// placement from.
type decisionCosts struct {
	tasks []Task
	cds   []grid.DomainID // per task: the client's domain
	slot  []int32         // machine -> cell (shared with the TRMS)
	cells int             // row stride: len(TRMS.priced)

	// eec holds each task's EEC row as the heuristic sees it, row stride
	// len(slot): the task's own, but +Inf on machines whose RD does not
	// support the ToA, so no sane heuristic selects them.
	eec []float64
	otl []grid.TrustLevel // fused OTL; LevelNone where the RD does not support the ToA
	tc  []int             // trust cost; 0 where the RD does not support the ToA
}

func (c *decisionCosts) cell(r, m int) int { return r*c.cells + int(c.slot[m]) }

// eligible reports whether machine m's resource domain supports task r.
// A priced RD that supports the ToA has an offerable OTL: price fails on
// a fused LevelNone.
func (c *decisionCosts) eligible(r, m int) bool { return c.otl[c.cell(r, m)] != grid.LevelNone }

func (c *decisionCosts) NumRequests() int      { return len(c.tasks) }
func (c *decisionCosts) MachineIndex() []int32 { return c.slot }
func (c *decisionCosts) CostRows(r int) ([]float64, []int, error) {
	nm := len(c.slot)
	return c.eec[r*nm : (r+1)*nm], c.tc[r*c.cells : (r+1)*c.cells], nil
}

// errNoSupportingRD is price's report that no priced resource domain
// supports a task's ToA; Submit and SubmitBatch word it for their callers.
var errNoSupportingRD = errors.New("core: no resource domain supports the ToA")

// price is the one pricing function of the decision path.  For validated
// tasks (cds[i] is task i's client domain) it reads every task's offered
// trust levels from one replica of the live table — nothing is copied,
// and all tasks of the decision see one table — and then fuses and costs
// each cell: the fuser and TrustCostWith run once per (task, priced RD),
// never per machine.  The first failure in (task, cell) order is returned
// with its task index.
func (t *TRMS) price(tasks []Task, cds []grid.DomainID) (*decisionCosts, int, error) {
	n := len(t.priced)
	c := &decisionCosts{
		tasks: tasks, cds: cds, slot: t.slot, cells: n,
		eec: make([]float64, len(tasks)*len(t.slot)),
		otl: make([]grid.TrustLevel, len(tasks)*n),
		tc:  make([]int, len(tasks)*n),
	}
	rows := make([]grid.OTLRow, len(tasks))
	for i, task := range tasks {
		rows[i] = grid.OTLRow{CD: cds[i], ToA: task.ToA, OTL: c.otl[i*n : (i+1)*n]}
	}
	t.table.Replica().OTLRows(t.priced, rows)

	for i, task := range tasks {
		row, tcs := &rows[i], c.tc[i*n:(i+1)*n]
		supported := false
		for s, rd := range t.priced {
			if s == row.N {
				return nil, i, row.Err // the table has a gap on this RD
			}
			if row.OTL[s] == grid.LevelNone {
				continue
			}
			if t.fuser != nil {
				row.OTL[s] = t.fuser.FuseOTL(cds[i], rd.ID, task.ToA, row.OTL[s])
			}
			tc, err := grid.TrustCostWith(t.cfg.ETSRule, task.RTL, rd.RTL, row.OTL[s])
			if err != nil {
				return nil, i, err
			}
			tcs[s] = tc
			supported = true
		}
		if !supported {
			return nil, i, errNoSupportingRD
		}
		eec := c.eec[i*len(t.slot) : (i+1)*len(t.slot)]
		for m, s := range t.slot {
			eec[m] = task.EEC[m]
			if row.OTL[s] == grid.LevelNone {
				eec[m] = math.Inf(1)
			}
		}
	}
	return c, -1, nil
}

// commit books task r of a priced decision onto machine m, queued behind
// whatever the machine already holds.  Callers hold t.mu.
func (t *TRMS) commit(c *decisionCosts, r, m int, now float64) *Placement {
	cell := c.cell(r, m)
	eec := c.tasks[r].EEC[m]
	esc := t.policy.Charged().Cost(eec, c.tc[cell])
	start := max(t.freeTime[m], now)
	finish := start + eec + esc
	t.freeTime[m] = finish
	t.placed++
	return &Placement{
		Machine:    t.cfg.Topology.Machines()[m],
		MachineIdx: m,
		RD:         t.priced[c.slot[m]].ID,
		CD:         c.cds[r],
		OTL:        c.otl[cell],
		TC:         c.tc[cell],
		EEC:        eec,
		ESC:        esc,
		ECC:        eec + esc,
		Start:      start,
		Finish:     finish,
	}
}
