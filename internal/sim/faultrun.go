package sim

import (
	"fmt"

	"gridtrust/internal/des"
	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// Fault-aware simulation
//
// The table-driven loop (run.go) collapses a task's Start and Finish into
// its commit: once a machine's queue position is known the timeline is
// fully determined, so no further events are needed.  Under churn that
// shortcut breaks — a crash between start and finish loses the in-flight
// task — so this loop keeps per-machine FIFO queues and schedules
// Start/Finish as real, cancellable DES events on the scaffold the two
// loops share (runBase).  Event payloads carry the request id (arrivals)
// or the machine index (finish/crash/repair).
//
// A heuristic sees scr.freeTime, as on the table-driven loop: commit sets
// it to max(free time, now) + ECC, a crash masks it, and a repair adds the
// queued ECCs to the repair time in commitment order.  So a crash-free run
// accumulates the table-driven loop's floats.
//
// Semantics:
//   - A crash loses only the in-flight task; it re-enters the scheduler
//     with its original request (and therefore its original RTL).  Work
//     already committed to the machine's queue stays queued and resumes
//     after repair — the commitment was to the machine, not the moment.
//   - A down machine is masked (availability +Inf) so the deterministic
//     heuristics never choose it; the commit double-checks the machine is
//     up, which also guards the soft-avoiding metaheuristics.
//   - Whitewashing resource domains advertise the maximum offerable trust
//     level: the scheduler's decision view uses the claimed trust costs
//     while charged costs keep the true ones.  The gap is reported as
//     RunResult.TrustTableError.
//   - Crash/repair renewal chains never drain the event queue, so the run
//     stops explicitly when every task completes or an error is recorded
//     (runBase.finished, runBase.fail).

// faultTask is one committed unit of work: the request and its charged ECC.
type faultTask struct {
	req int
	ecc float64
}

// newFaultCosts builds the decision view for the plan's adversarial
// resource domains — the scheduler decides on this view, the simulator
// charges the truth — and measures the resulting trust-table error (mean
// absolute claimed−true TC over all (request, machine) pairs).  Adversaries
// are resource domains, so the view is the truth with the claimed cost
// substituted per (profile, RD slot).  Returns (truth, 0) when no domain
// whitewashes: decision and truth coincide.
func newFaultCosts(truth *workloadCosts, plan fault.Plan) (*workloadCosts, float64, error) {
	w := truth.w
	adv := plan.AdversarialRDs(w.NumRDs)
	any := false
	for _, a := range adv {
		any = any || a
	}
	if !any {
		return truth, 0, nil
	}
	dec := *truth
	dec.tc = append([]int(nil), truth.tc...)
	var gap int64
	for s, rd := range truth.slotRD {
		if rd < 0 || int(rd) >= len(adv) {
			return nil, 0, fmt.Errorf("sim: machine %d is in resource domain %d, outside the %d domains the fault plan draws adversaries over",
				truth.slotAt[s], rd, len(adv))
		}
		if !adv[rd] {
			continue
		}
		for j, r := range truth.rowReq {
			v, err := grid.TrustCostWith(w.Spec.ETSRule, w.Requests[r].ClientRTL, w.ResourceRTL[rd], grid.MaxOfferable)
			if err != nil {
				return nil, 0, fmt.Errorf("sim: claimed trust cost for request %d on machine %d: %w", r, truth.slotAt[s], err)
			}
			k := j*len(truth.slotRD) + s
			dec.tc[k] = v
			gap += truth.pairGap(v, truth.tc[k], truth.rowSize[j], s)
		}
	}
	return &dec, truth.meanGap(gap), nil
}

// faultState is the event-per-task loop: a machine is up or down, runs one
// task at a time off a FIFO queue, and a task's start and finish are
// events.  The per-machine state lives in the scratch (runScratch).
type faultState struct {
	runBase
	view  *modelView // non-nil when Scenario.TrustModel drives decisions
	churn *fault.Churn

	kFinish, kCrash, kRepair int32
}

// prepareMachines resets the event-per-task loop's buffers: nm idle, up
// machines with empty queues and no request requeued.
func (scr *runScratch) prepareMachines(nm, tasks int) {
	scr.up = zeroed(scr.up, nm)
	scr.running = zeroed(scr.running, nm)
	scr.runStart = zeroed(scr.runStart, nm)
	scr.finishEv = zeroed(scr.finishEv, nm)
	scr.requeues = zeroed(scr.requeues, tasks)
	if cap(scr.queue) < nm {
		scr.queue = make([][]faultTask, nm)
	}
	scr.queue = scr.queue[:nm]
	for m := 0; m < nm; m++ {
		scr.up[m] = true
		scr.running[m].req = -1
		scr.queue[m] = scr.queue[m][:0]
	}
}

// runFaultTraced executes one fault-aware run.  It mirrors runTraced's
// contract but pays event-per-task overhead for crash handling.
func runFaultTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*RunResult, error) {
	st, err := newFaultState(sc, w, policy, tr, scr)
	if err != nil {
		return nil, err
	}
	res, err := st.run()
	if err != nil || st.view == nil {
		return res, err
	}
	// Under a live model the reported gap is what the scheduler was left
	// believing after learning, not the static whitewash gap.
	if res.TrustTableError, err = st.view.tableError(); err != nil {
		return nil, err
	}
	return res, nil
}

// newFaultState sets up one fault-aware run with every initial event
// scheduled, ready for its queue to run.
func newFaultState(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*faultState, error) {
	base, err := newRunBase(sc, w, policy, tr, scr)
	if err != nil {
		return nil, err
	}
	st := &faultState{runBase: base}
	claimed, tableErr, err := newFaultCosts(st.truth, sc.Fault)
	if err != nil {
		return nil, err
	}
	st.dec = claimed
	st.result.TrustTableError = tableErr
	if sc.dynamicTrust() {
		if st.view, err = newModelView(sc, st.truth, claimed); err != nil {
			return nil, err
		}
		st.dec = st.view
	}
	scr.prepareMachines(sc.Machines, sc.Tasks)

	st.kFinish = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onFinish(int(a)) })
	st.kCrash = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onCrash(int(a)) })
	st.kRepair = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onRepair(int(a)) })
	if err := st.start(st); err != nil {
		return nil, err
	}
	if sc.Fault.Churn() {
		if st.churn, err = fault.NewChurn(sc.Fault, sc.Machines); err != nil {
			return nil, err
		}
		for m := 0; m < sc.Machines; m++ {
			st.scheduleCrash(m, st.churn.UpTime(m))
		}
	}
	return st, nil
}

// commit appends request r to machine m's queue and starts it if the
// machine is idle.  The masking contract is enforced here for every
// heuristic, deterministic or not.
func (st *faultState) commit(r, m int, now float64) {
	scr := st.scr
	if !scr.up[m] {
		st.fail(fmt.Errorf("sim: heuristic %q mapped request %d to down machine %d", st.sc.Heuristic, r, m))
		return
	}
	ecc, tc := st.charge(r, m)
	st.booked(r, m, now, ecc, tc)
	scr.freeTime[m] = max(scr.freeTime[m], now) + ecc
	scr.queue[m] = append(scr.queue[m], faultTask{req: r, ecc: ecc})
	st.startNext(m)
}

// startNext starts machine m's queue head when m is up and idle.
func (st *faultState) startNext(m int) {
	scr := st.scr
	if !scr.up[m] || scr.running[m].req != -1 || len(scr.queue[m]) == 0 {
		return
	}
	t := scr.queue[m][0]
	scr.queue[m] = scr.queue[m][:copy(scr.queue[m], scr.queue[m][1:])]
	now := st.q.Now()
	scr.running[m] = t
	scr.runStart[m] = now
	st.record(trace.Event{Time: now, Kind: trace.Start, Request: t.req, Machine: m, Cost: t.ecc})
	ev, err := st.q.ScheduleAt(now+t.ecc, st.kFinish, int32(m), 0)
	if err != nil {
		st.fail(err)
		return
	}
	scr.finishEv[m] = ev
}

// onFinish completes machine m's running task and starts its next.
func (st *faultState) onFinish(m int) {
	if st.err != nil {
		return
	}
	t := st.scr.running[m]
	st.finished(t.req, m, st.q.Now(), t.ecc)
	if st.view != nil {
		if err := st.view.noteFinish(t.req, m); err != nil {
			st.fail(err)
			return
		}
	}
	st.scr.running[m].req = -1
	st.startNext(m)
}

// scheduleCrash arms machine m's next crash after the given up-time.
func (st *faultState) scheduleCrash(m int, up float64) {
	if _, err := st.q.ScheduleAt(st.q.Now()+up, st.kCrash, int32(m), 0); err != nil {
		st.fail(err)
	}
}

// onCrash takes machine m down: the in-flight task (if any) is lost, its
// partial work wasted, and the request requeued; queued tasks wait out the
// repair.
func (st *faultState) onCrash(m int) {
	if st.err != nil {
		return
	}
	scr := st.scr
	now := st.q.Now()
	scr.up[m] = false
	scr.freeTime[m] = sched.Masked()
	st.result.Failures++
	down := st.churn.DownTime(m)
	lost := scr.running[m]
	st.record(trace.Event{Time: now, Kind: trace.Failure, Request: lost.req, Machine: m, Cost: down})
	if lost.req != -1 {
		st.q.Cancel(scr.finishEv[m])
		partial := now - scr.runStart[m]
		scr.busy[m] += partial
		st.result.WastedWork += partial
		scr.running[m].req = -1
		st.requeue(lost.req, m)
	}
	if st.err != nil {
		return
	}
	if _, err := st.q.ScheduleAt(now+down, st.kRepair, int32(m), 0); err != nil {
		st.fail(err)
	}
}

// requeue re-enters a crash-lost request into the scheduler.  The request
// is immutable, so it carries its original RTL by construction.
func (st *faultState) requeue(r, m int) {
	st.scr.requeues[r]++
	if st.scr.requeues[r] > st.sc.Fault.RequeueCap() {
		st.fail(fmt.Errorf("sim: request %d requeued more than %d times; the fault plan starves the workload",
			r, st.sc.Fault.RequeueCap()))
		return
	}
	st.result.Requeues++
	st.record(trace.Event{Time: st.q.Now(), Kind: trace.Requeue, Request: r, Machine: m})
	st.submit(r, st.q.Now())
}

// onRepair brings machine m back up, arms its next crash, resumes its
// queue and drains any arrivals deferred while the whole grid was down.
func (st *faultState) onRepair(m int) {
	if st.err != nil {
		return
	}
	scr := st.scr
	now := st.q.Now()
	scr.up[m] = true
	// m runs nothing and took no work while down: its queue drains from now.
	scr.freeTime[m] = now
	for _, t := range scr.queue[m] {
		scr.freeTime[m] += t.ecc
	}
	st.scheduleCrash(m, st.churn.UpTime(m))
	st.startNext(m)
	// place may defer again, behind the n requests being drained.
	n := len(scr.deferred)
	for i := 0; i < n && st.err == nil; i++ {
		st.place(scr.deferred[i], now)
	}
	scr.deferred = scr.deferred[:copy(scr.deferred, scr.deferred[n:])]
}
