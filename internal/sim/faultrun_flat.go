package sim

import (
	"fmt"

	"gridtrust/internal/des"
	"gridtrust/internal/fault"
	"gridtrust/internal/sched"
	"gridtrust/internal/stats"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// Flat-queue fault path
//
// flatFaultState mirrors faultrun.go on the typed event queue, the same
// way run_flat.go mirrors run.go and internal/des/flat.go mirrors the
// closure kernel: the closure-based implementation stays as the
// executable reference, and this file makes the identical schedule calls
// in the identical order (arrivals, first batch tick, crash arming,
// then whatever the fired handlers schedule).  Equal schedule order
// means equal sequence numbers, equal fire order — including
// equal-timestamp ties such as a finish racing a crash — and therefore
// bit-identical results; sim_flat_equiv_test.go and the ci.sh sweep diff
// enforce that.  Event payloads carry the request id (arrivals) or the
// machine index (finish/crash/repair).
type flatFaultState struct {
	*faultState
	q *des.Queue

	kFinish, kCrash, kRepair int32
	finishID                 []des.FlatID
}

// runFaultTracedFlat executes one fault-aware run on the flat queue.
func runFaultTracedFlat(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace) (*RunResult, error) {
	truth, err := newWorkloadCosts(w)
	if err != nil {
		return nil, err
	}
	if truth.NumRequests() != sc.Tasks || truth.NumMachines() != sc.Machines {
		return nil, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			truth.NumRequests(), truth.NumMachines(), sc.Tasks, sc.Machines)
	}
	if sc.Tasks > 1<<31-1 || sc.Machines > 1<<31-1 {
		return nil, fmt.Errorf("sim: instance exceeds the typed event payload range")
	}
	claimed, tableErr, err := newFaultCosts(truth, sc.Fault)
	if err != nil {
		return nil, err
	}
	nm := sc.Machines
	st := &faultState{
		sc:       sc,
		truth:    truth,
		dec:      claimed,
		policy:   policy,
		trace:    tr,
		up:       make([]bool, nm),
		queue:    make([][]faultTask, nm),
		running:  make([]faultTask, nm),
		runStart: make([]float64, nm),
		avail:    make([]float64, nm),
		busy:     make([]float64, nm),
		requeues: make([]int, sc.Tasks),
		result: &RunResult{
			Policy:          policy.Name,
			Completions:     &stats.Sample{},
			BusyTime:        make([]float64, nm),
			TrustTableError: tableErr,
		},
	}
	if sc.dynamicTrust() {
		if st.view, err = newModelView(sc, truth, claimed); err != nil {
			return nil, err
		}
		st.dec = st.view
	}
	for m := 0; m < nm; m++ {
		st.up[m] = true
		st.running[m].req = -1
	}

	fs := &flatFaultState{
		faultState: st,
		q:          des.NewQueue(),
		finishID:   make([]des.FlatID, nm),
	}
	fs.kFinish = fs.q.RegisterKind(func(_ *des.Queue, a, _ int32) { fs.onFinish(int(a)) })
	fs.kCrash = fs.q.RegisterKind(func(_ *des.Queue, a, _ int32) { fs.onCrash(int(a)) })
	fs.kRepair = fs.q.RegisterKind(func(_ *des.Queue, a, _ int32) { fs.onRepair(int(a)) })

	switch sc.Mode {
	case Immediate:
		if st.imm, err = sched.ImmediateByName(sc.Heuristic); err != nil {
			return nil, err
		}
		kArr := fs.q.RegisterKind(func(q *des.Queue, a, _ int32) {
			if st.err != nil {
				return
			}
			st.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(a), Machine: -1})
			fs.placeOrDefer(int(a))
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := fs.q.ScheduleAt(req.ArrivalAt, kArr, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
	case Batch:
		if st.batch, err = sched.BatchByName(sc.Heuristic); err != nil {
			return nil, err
		}
		kArr := fs.q.RegisterKind(func(q *des.Queue, a, _ int32) {
			if st.err != nil {
				return
			}
			st.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(a), Machine: -1})
			st.pending = append(st.pending, int(a))
		})
		var kTick int32
		kTick = fs.q.RegisterKind(func(q *des.Queue, _, _ int32) {
			// Mirrors des.Periodic's wrapper around the reference tick.
			if st.err != nil || st.completed >= sc.Tasks {
				return
			}
			if len(st.pending) > 0 && st.anyUp() {
				st.record(trace.Event{
					Time: q.Now(), Kind: trace.BatchTick,
					Request: -1, Machine: -1, Cost: float64(len(st.pending)),
				})
				fs.assignBatch()
			}
			if st.completed < sc.Tasks && st.err == nil {
				_, _ = q.ScheduleAfter(sc.BatchInterval, kTick, 0, 0)
			}
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := fs.q.ScheduleAt(req.ArrivalAt, kArr, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
		if _, err := fs.q.ScheduleAfter(sc.BatchInterval, kTick, 0, 0); err != nil {
			return nil, err
		}
	}

	if sc.Fault.Churn() {
		if st.churn, err = fault.NewChurn(sc.Fault, nm); err != nil {
			return nil, err
		}
		for m := 0; m < nm; m++ {
			fs.scheduleCrash(m, st.churn.UpTime(m))
		}
	}

	fs.q.Run()
	if st.err != nil {
		return nil, st.err
	}
	if st.completed != sc.Tasks {
		return nil, fmt.Errorf("sim: only %d of %d requests completed", st.completed, sc.Tasks)
	}
	return st.finalize()
}

// fail records the first error and stops the simulation.
func (fs *flatFaultState) fail(err error) {
	if fs.err == nil {
		fs.err = err
	}
	fs.q.Stop()
}

// placeOrDefer maps one request immediately, or parks it when every
// machine is down.
func (fs *flatFaultState) placeOrDefer(r int) {
	if !fs.anyUp() {
		fs.deferred = append(fs.deferred, r)
		return
	}
	a, err := fs.imm.AssignOne(fs.dec, fs.policy, r, fs.availability(fs.q.Now()))
	if err != nil {
		fs.fail(err)
		return
	}
	fs.commit(r, a.Machine)
}

// assignBatch maps the pending meta-request over the masked availability.
func (fs *flatFaultState) assignBatch() {
	reqs := fs.pending
	fs.pending = fs.pending[:0]
	as, err := fs.batch.AssignBatch(fs.dec, fs.policy, reqs, fs.availability(fs.q.Now()))
	if err != nil {
		fs.fail(err)
		return
	}
	if len(as) != len(reqs) {
		fs.fail(fmt.Errorf("sim: batch heuristic mapped %d of %d requests", len(as), len(reqs)))
		return
	}
	for _, a := range as {
		fs.commit(a.Req, a.Machine)
		if fs.err != nil {
			return
		}
	}
}

// commit appends request r to machine m's queue and starts it if idle.
func (fs *flatFaultState) commit(r, m int) {
	if !fs.up[m] {
		fs.fail(fmt.Errorf("sim: heuristic %q mapped request %d to down machine %d", fs.sc.Heuristic, r, m))
		return
	}
	ecc, err := sched.ChargedECC(fs.truth, fs.policy, r, m)
	if err != nil {
		fs.fail(err)
		return
	}
	tc, err := fs.truth.TrustCost(r, m)
	if err != nil {
		fs.fail(err)
		return
	}
	now := fs.q.Now()
	fs.record(trace.Event{Time: now, Kind: trace.Scheduled, Request: r, Machine: m, Cost: ecc})
	fs.tcSum += float64(tc)
	fs.commits++
	fs.result.Assigned++
	fs.queue[m] = append(fs.queue[m], faultTask{req: r, ecc: ecc})
	fs.startNext(m)
}

// startNext starts machine m's queue head when m is up and idle.
func (fs *flatFaultState) startNext(m int) {
	if !fs.up[m] || fs.running[m].req != -1 || len(fs.queue[m]) == 0 {
		return
	}
	t := fs.queue[m][0]
	copy(fs.queue[m], fs.queue[m][1:])
	fs.queue[m] = fs.queue[m][:len(fs.queue[m])-1]
	now := fs.q.Now()
	fs.running[m] = t
	fs.runStart[m] = now
	fs.record(trace.Event{Time: now, Kind: trace.Start, Request: t.req, Machine: m, Cost: t.ecc})
	ev, err := fs.q.ScheduleAt(now+t.ecc, fs.kFinish, int32(m), 0)
	if err != nil {
		fs.fail(err)
		return
	}
	fs.finishID[m] = ev
}

// onFinish completes machine m's running task.
func (fs *flatFaultState) onFinish(m int) {
	if fs.err != nil {
		return
	}
	t := fs.running[m]
	now := fs.q.Now()
	fs.record(trace.Event{Time: now, Kind: trace.Finish, Request: t.req, Machine: m, Cost: t.ecc})
	fs.busy[m] += t.ecc
	req := fs.truth.w.Requests[t.req]
	fs.result.Completions.Add(now - req.ArrivalAt)
	if req.Deadline > 0 && now > req.Deadline {
		fs.result.DeadlineMisses++
	}
	if now > fs.result.Makespan {
		fs.result.Makespan = now
	}
	if fs.view != nil {
		if err := fs.view.noteFinish(t.req, m); err != nil {
			fs.fail(err)
			return
		}
	}
	fs.running[m].req = -1
	fs.completed++
	if fs.completed == fs.sc.Tasks {
		fs.q.Stop()
		return
	}
	fs.startNext(m)
}

// scheduleCrash arms machine m's next crash after the given up-time.
func (fs *flatFaultState) scheduleCrash(m int, up float64) {
	if _, err := fs.q.ScheduleAt(fs.q.Now()+up, fs.kCrash, int32(m), 0); err != nil {
		fs.fail(err)
	}
}

// onCrash takes machine m down; see faultState.onCrash.
func (fs *flatFaultState) onCrash(m int) {
	if fs.err != nil {
		return
	}
	now := fs.q.Now()
	fs.up[m] = false
	fs.result.Failures++
	down := fs.churn.DownTime(m)
	lost := fs.running[m]
	fs.record(trace.Event{Time: now, Kind: trace.Failure, Request: lost.req, Machine: m, Cost: down})
	if lost.req != -1 {
		fs.q.Cancel(fs.finishID[m])
		partial := now - fs.runStart[m]
		fs.busy[m] += partial
		fs.result.WastedWork += partial
		fs.running[m].req = -1
		fs.requeue(lost.req, m)
	}
	if fs.err != nil {
		return
	}
	if _, err := fs.q.ScheduleAt(now+down, fs.kRepair, int32(m), 0); err != nil {
		fs.fail(err)
	}
}

// requeue re-enters a crash-lost request into the scheduler.
func (fs *flatFaultState) requeue(r, m int) {
	fs.requeues[r]++
	if fs.requeues[r] > fs.sc.Fault.RequeueCap() {
		fs.fail(fmt.Errorf("sim: request %d requeued more than %d times; the fault plan starves the workload",
			r, fs.sc.Fault.RequeueCap()))
		return
	}
	fs.result.Requeues++
	fs.record(trace.Event{Time: fs.q.Now(), Kind: trace.Requeue, Request: r, Machine: m})
	if fs.sc.Mode == Immediate {
		fs.placeOrDefer(r)
	} else {
		fs.pending = append(fs.pending, r)
	}
}

// onRepair brings machine m back up; see faultState.onRepair.
func (fs *flatFaultState) onRepair(m int) {
	if fs.err != nil {
		return
	}
	fs.up[m] = true
	fs.scheduleCrash(m, fs.churn.UpTime(m))
	fs.startNext(m)
	if len(fs.deferred) > 0 {
		defd := fs.deferred
		fs.deferred = nil
		for _, r := range defd {
			fs.placeOrDefer(r)
			if fs.err != nil {
				return
			}
		}
	}
}
