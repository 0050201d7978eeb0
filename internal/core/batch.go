package core

import (
	"fmt"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
)

// SubmitBatch maps a meta-request of tasks atomically with a batch-mode
// heuristic (Min-min, Sufferage, ...), mirroring the paper's batch TRM
// algorithms at the TRMS level: all tasks are priced against the same
// trust table and the same starting availability, and the whole batch
// commits or none of it does.
func (t *TRMS) SubmitBatch(tasks []Task, h sched.Batch, now float64) ([]*Placement, error) {
	if h == nil {
		return nil, fmt.Errorf("core: nil batch heuristic")
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("core: empty batch")
	}

	// Tasks are checked and priced in order, so the error reported is the
	// first task's that has one: price everything ahead of the first
	// invalid task before reporting it.
	cds := make([]grid.DomainID, 0, len(tasks))
	var invalid error
	for i, task := range tasks {
		cd, err := t.validateBatchTask(i, task)
		if err != nil {
			invalid = err
			break
		}
		cds = append(cds, cd)
	}
	costs, i, err := t.price(tasks[:len(cds)], cds)
	if err == errNoSupportingRD {
		err = fmt.Errorf("core: batch task %d: no resource domain supports ToA %v", i, tasks[i].ToA)
	}
	if err == nil {
		err = invalid
	}
	if err != nil {
		return nil, err
	}

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
	// Reuse the TRMS schedule buffer across batch events when the
	// heuristic supports allocation-free mapping.
	var as []sched.Assignment
	if bi, ok := h.(sched.BatchInto); ok {
		as, err = bi.AssignBatchInto(costs, t.policy, reqs, avail, t.asgBuf[:0])
		t.asgBuf = as[:0]
	} else {
		as, err = h.AssignBatch(costs, t.policy, reqs, avail)
	}
	if err != nil {
		return nil, err
	}
	if len(as) != len(tasks) {
		return nil, fmt.Errorf("core: heuristic mapped %d of %d batch tasks", len(as), len(tasks))
	}
	// Validate before committing anything.
	for _, a := range as {
		if !costs.eligible(a.Req, a.Machine) {
			return nil, fmt.Errorf("core: heuristic placed batch task %d on ineligible machine %d",
				a.Req, a.Machine)
		}
	}
	placements := make([]*Placement, len(tasks))
	for _, a := range as {
		placements[a.Req] = t.commit(costs, a.Req, a.Machine, now)
	}
	return placements, nil
}

// validateBatchTask checks batch task i's shape and resolves its client
// domain.
func (t *TRMS) validateBatchTask(i int, task Task) (grid.DomainID, error) {
	if nm := len(t.slot); len(task.EEC) != nm {
		return 0, fmt.Errorf("core: batch task %d has %d EEC entries for %d machines",
			i, len(task.EEC), nm)
	}
	if len(task.ToA.Activities) == 0 {
		return 0, fmt.Errorf("core: batch task %d has an empty ToA", i)
	}
	if !task.RTL.Valid() {
		return 0, fmt.Errorf("core: batch task %d RTL %v invalid", i, task.RTL)
	}
	cd, err := t.cfg.Topology.ClientCD(task.Client)
	if err != nil {
		return 0, fmt.Errorf("core: batch task %d: %w", i, err)
	}
	return cd.ID, nil
}
