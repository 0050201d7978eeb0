package sim

import (
	"fmt"
	"math"

	"gridtrust/internal/des"
	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/stats"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// Fault-aware simulation
//
// The fault-free path (run.go) collapses a task's Start and Finish into
// its commit: once a machine's queue position is known the timeline is
// fully determined, so no further events are needed.  Under churn that
// shortcut breaks — a crash between start and finish loses the in-flight
// task — so this path keeps per-machine FIFO queues and schedules
// Start/Finish as real, cancellable DES events.  Event payloads carry the
// request id (arrivals) or the machine index (finish/crash/repair).
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
//     stops explicitly when every task completes or an error is recorded.

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

// faultState carries the mutable state of one fault-aware run.
type faultState struct {
	sc     Scenario
	truth  *workloadCosts
	dec    sched.Costs
	view   *modelView // non-nil when Scenario.TrustModel drives decisions
	policy sched.Policy
	churn  *fault.Churn
	trace  *trace.Trace

	q                        *des.Queue
	kFinish, kCrash, kRepair int32

	imm   sched.Immediate
	batch sched.Batch

	up       []bool
	queue    [][]faultTask // committed, waiting for the machine
	running  []faultTask   // running[m].req == -1 when idle
	runStart []float64
	finishEv []des.FlatID
	avail    []float64
	busy     []float64

	pending  []int // batch mode: arrivals awaiting the next tick
	deferred []int // immediate mode: arrivals seen while every machine was down
	requeues []int // per-request requeue counts, against the plan's cap

	completed int
	commits   int
	tcSum     float64
	result    *RunResult
	err       error
}

// runFaultTraced executes one fault-aware run.  It mirrors runTraced's
// contract but pays event-per-task overhead for crash handling.
func runFaultTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace) (*RunResult, error) {
	truth, err := newWorkloadCosts(w)
	if err != nil {
		return nil, err
	}
	if truth.NumRequests() != sc.Tasks || truth.NumMachines() != sc.Machines {
		return nil, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			truth.NumRequests(), truth.NumMachines(), sc.Tasks, sc.Machines)
	}
	if sc.Tasks > math.MaxInt32 || sc.Machines > math.MaxInt32 {
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
		q:        des.NewQueue(),
		up:       make([]bool, nm),
		queue:    make([][]faultTask, nm),
		running:  make([]faultTask, nm),
		runStart: make([]float64, nm),
		finishEv: make([]des.FlatID, nm),
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

	st.kFinish = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onFinish(int(a)) })
	st.kCrash = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onCrash(int(a)) })
	st.kRepair = st.q.RegisterKind(func(_ *des.Queue, a, _ int32) { st.onRepair(int(a)) })

	switch sc.Mode {
	case Immediate:
		if st.imm, err = sched.ImmediateByName(sc.Heuristic); err != nil {
			return nil, err
		}
		kArr := st.q.RegisterKind(func(q *des.Queue, a, _ int32) {
			if st.err != nil {
				return
			}
			st.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(a), Machine: -1})
			st.placeOrDefer(int(a))
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := st.q.ScheduleAt(req.ArrivalAt, kArr, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
	case Batch:
		if st.batch, err = sched.BatchByName(sc.Heuristic); err != nil {
			return nil, err
		}
		kArr := st.q.RegisterKind(func(q *des.Queue, a, _ int32) {
			if st.err != nil {
				return
			}
			st.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(a), Machine: -1})
			st.pending = append(st.pending, int(a))
		})
		var kTick int32
		kTick = st.q.RegisterKind(func(q *des.Queue, _, _ int32) {
			if st.err != nil || st.completed >= sc.Tasks {
				return
			}
			if len(st.pending) > 0 && st.anyUp() {
				st.record(trace.Event{
					Time: q.Now(), Kind: trace.BatchTick,
					Request: -1, Machine: -1, Cost: float64(len(st.pending)),
				})
				st.assignBatch()
			}
			if st.completed < sc.Tasks && st.err == nil {
				_, _ = q.ScheduleAfter(sc.BatchInterval, kTick, 0, 0)
			}
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := st.q.ScheduleAt(req.ArrivalAt, kArr, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
		if _, err := st.q.ScheduleAfter(sc.BatchInterval, kTick, 0, 0); err != nil {
			return nil, err
		}
	}

	if sc.Fault.Churn() {
		if st.churn, err = fault.NewChurn(sc.Fault, nm); err != nil {
			return nil, err
		}
		for m := 0; m < nm; m++ {
			st.scheduleCrash(m, st.churn.UpTime(m))
		}
	}

	st.q.Run()
	if st.err != nil {
		return nil, st.err
	}
	if st.completed != sc.Tasks {
		return nil, fmt.Errorf("sim: only %d of %d requests completed", st.completed, sc.Tasks)
	}
	return st.finalize()
}

// record appends a trace event when tracing is enabled.
func (st *faultState) record(e trace.Event) {
	if st.trace != nil {
		st.trace.Add(e)
	}
}

// fail records the first error and stops the simulation: the crash/repair
// renewal chains would otherwise keep the event queue alive forever.
func (st *faultState) fail(err error) {
	if st.err == nil {
		st.err = err
	}
	st.q.Stop()
}

// anyUp reports whether at least one machine is up.
func (st *faultState) anyUp() bool {
	for _, u := range st.up {
		if u {
			return true
		}
	}
	return false
}

// availability builds the masked availability vector at time now.  For an
// up machine it is the time its committed work drains; a down machine is
// masked out entirely.  The queue is summed in commitment order so that a
// crash-free run accumulates bit-identical floats to the fast path's
// stacked free time.
func (st *faultState) availability(now float64) []float64 {
	for m := range st.avail {
		if !st.up[m] {
			st.avail[m] = sched.Masked()
			continue
		}
		base := now
		if st.running[m].req != -1 {
			base = st.runStart[m] + st.running[m].ecc
		}
		for _, t := range st.queue[m] {
			base += t.ecc
		}
		st.avail[m] = base
	}
	return st.avail
}

// placeOrDefer maps one request immediately, or parks it when every
// machine is down (repair drains the deferred list).
func (st *faultState) placeOrDefer(r int) {
	if !st.anyUp() {
		st.deferred = append(st.deferred, r)
		return
	}
	a, err := st.imm.AssignOne(st.dec, st.policy, r, st.availability(st.q.Now()))
	if err != nil {
		st.fail(err)
		return
	}
	st.commit(r, a.Machine)
}

// assignBatch maps the pending meta-request over the masked availability.
func (st *faultState) assignBatch() {
	reqs := st.pending
	st.pending = st.pending[:0]
	as, err := st.batch.AssignBatch(st.dec, st.policy, reqs, st.availability(st.q.Now()))
	if err != nil {
		st.fail(err)
		return
	}
	if len(as) != len(reqs) {
		st.fail(fmt.Errorf("sim: batch heuristic mapped %d of %d requests", len(as), len(reqs)))
		return
	}
	for _, a := range as {
		st.commit(a.Req, a.Machine)
		if st.err != nil {
			return
		}
	}
}

// commit appends request r to machine m's queue and starts it if the
// machine is idle.  The masking contract is enforced here for every
// heuristic, deterministic or not.
func (st *faultState) commit(r, m int) {
	if !st.up[m] {
		st.fail(fmt.Errorf("sim: heuristic %q mapped request %d to down machine %d", st.sc.Heuristic, r, m))
		return
	}
	ecc, err := sched.ChargedECC(st.truth, st.policy, r, m)
	if err != nil {
		st.fail(err)
		return
	}
	tc, err := st.truth.TrustCost(r, m)
	if err != nil {
		st.fail(err)
		return
	}
	now := st.q.Now()
	st.record(trace.Event{Time: now, Kind: trace.Scheduled, Request: r, Machine: m, Cost: ecc})
	st.tcSum += float64(tc)
	st.commits++
	st.result.Assigned++
	st.queue[m] = append(st.queue[m], faultTask{req: r, ecc: ecc})
	st.startNext(m)
}

// startNext starts machine m's queue head when m is up and idle.
func (st *faultState) startNext(m int) {
	if !st.up[m] || st.running[m].req != -1 || len(st.queue[m]) == 0 {
		return
	}
	t := st.queue[m][0]
	copy(st.queue[m], st.queue[m][1:])
	st.queue[m] = st.queue[m][:len(st.queue[m])-1]
	now := st.q.Now()
	st.running[m] = t
	st.runStart[m] = now
	st.record(trace.Event{Time: now, Kind: trace.Start, Request: t.req, Machine: m, Cost: t.ecc})
	ev, err := st.q.ScheduleAt(now+t.ecc, st.kFinish, int32(m), 0)
	if err != nil {
		st.fail(err)
		return
	}
	st.finishEv[m] = ev
}

// onFinish completes machine m's running task.
func (st *faultState) onFinish(m int) {
	if st.err != nil {
		return
	}
	t := st.running[m]
	now := st.q.Now()
	st.record(trace.Event{Time: now, Kind: trace.Finish, Request: t.req, Machine: m, Cost: t.ecc})
	st.busy[m] += t.ecc
	req := st.truth.w.Requests[t.req]
	st.result.Completions.Add(now - req.ArrivalAt)
	if req.Deadline > 0 && now > req.Deadline {
		st.result.DeadlineMisses++
	}
	if now > st.result.Makespan {
		st.result.Makespan = now
	}
	if st.view != nil {
		if err := st.view.noteFinish(t.req, m); err != nil {
			st.fail(err)
			return
		}
	}
	st.running[m].req = -1
	st.completed++
	if st.completed == st.sc.Tasks {
		st.q.Stop()
		return
	}
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
	now := st.q.Now()
	st.up[m] = false
	st.result.Failures++
	down := st.churn.DownTime(m)
	lost := st.running[m]
	st.record(trace.Event{Time: now, Kind: trace.Failure, Request: lost.req, Machine: m, Cost: down})
	if lost.req != -1 {
		st.q.Cancel(st.finishEv[m])
		partial := now - st.runStart[m]
		st.busy[m] += partial
		st.result.WastedWork += partial
		st.running[m].req = -1
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
	st.requeues[r]++
	if st.requeues[r] > st.sc.Fault.RequeueCap() {
		st.fail(fmt.Errorf("sim: request %d requeued more than %d times; the fault plan starves the workload",
			r, st.sc.Fault.RequeueCap()))
		return
	}
	st.result.Requeues++
	st.record(trace.Event{Time: st.q.Now(), Kind: trace.Requeue, Request: r, Machine: m})
	if st.sc.Mode == Immediate {
		st.placeOrDefer(r)
	} else {
		st.pending = append(st.pending, r)
	}
}

// onRepair brings machine m back up, arms its next crash, resumes its
// queue and drains any arrivals deferred while the whole grid was down.
func (st *faultState) onRepair(m int) {
	if st.err != nil {
		return
	}
	st.up[m] = true
	st.scheduleCrash(m, st.churn.UpTime(m))
	st.startNext(m)
	if len(st.deferred) > 0 {
		defd := st.deferred
		st.deferred = nil
		for _, r := range defd {
			st.placeOrDefer(r)
			if st.err != nil {
				return
			}
		}
	}
}

// finalize computes the aggregate metrics from the completed run.
func (st *faultState) finalize() (*RunResult, error) {
	res := st.result
	res.AvgCompletionTime = res.Completions.Mean()
	res.P50Completion = res.Completions.Quantile(0.5)
	res.P95Completion = res.Completions.Quantile(0.95)
	copy(res.BusyTime, st.busy)
	if res.Makespan <= 0 {
		return nil, fmt.Errorf("sim: degenerate makespan %g", res.Makespan)
	}
	util := 0.0
	for _, b := range st.busy {
		util += b / res.Makespan
	}
	res.MeanUtilization = util / float64(len(st.busy))
	res.MeanTrustCost = st.tcSum / float64(st.commits)
	res.DeadlineMissRate = float64(res.DeadlineMisses) / float64(st.completed)
	if st.view != nil {
		// Under a live model the reported gap is what the scheduler was
		// left believing after learning, not the static whitewash gap.
		terr, err := st.view.tableError()
		if err != nil {
			return nil, err
		}
		res.TrustTableError = terr
	}
	return res, nil
}
