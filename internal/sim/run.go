package sim

import (
	"fmt"
	"math"
	"slices"

	"gridtrust/internal/des"
	"gridtrust/internal/sched"
	"gridtrust/internal/stats"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// RunResult captures one simulation run's metrics — the quantities the
// paper reports in Tables 4-9 plus supporting detail.
type RunResult struct {
	// Policy is the cost policy name ("trust-aware"/"trust-unaware").
	Policy string
	// AvgCompletionTime is the mean over requests of (finish − arrival),
	// the paper's "Ave. completion time" column.
	AvgCompletionTime float64
	// Makespan is the time the last request finishes.
	Makespan float64
	// MeanUtilization is busy time / makespan averaged over machines,
	// the paper's "Machine utilization" column (a fraction in [0,1]).
	MeanUtilization float64
	// Completions holds per-request (finish − arrival) samples.
	Completions *stats.Sample
	// BusyTime holds per-machine busy time.
	BusyTime []float64
	// Assigned counts scheduling commits: Tasks on a fault-free success,
	// Tasks + Requeues when churn forced rescheduling.
	Assigned int
	// MeanTrustCost is the mean TC of the chosen (request, machine)
	// pairs — diagnostic for how well the mapper dodged trust costs.
	MeanTrustCost float64
	// P50Completion and P95Completion are completion-time percentiles;
	// the paper reports only the mean, but tail latency is what a Grid
	// user feels.
	P50Completion, P95Completion float64
	// DeadlineMisses counts requests finishing after their deadline;
	// DeadlineMissRate is the fraction (0 when the workload carries no
	// deadlines).
	DeadlineMisses   int
	DeadlineMissRate float64

	// Fault-run metrics, all zero on the fault-free fast path.  Failures
	// counts machine crashes during the run; Requeues counts crash-lost
	// tasks re-entering the scheduler (so Assigned = Tasks + Requeues);
	// WastedWork is the total partial execution time lost to crashes;
	// TrustTableError is the mean absolute gap between the claimed
	// (decision-view) and true trust costs under adversary injection.
	Failures        int
	Requeues        int
	WastedWork      float64
	TrustTableError float64
}

// Run executes the scenario once on the given workload under the given
// policy.  The workload must have been generated with the scenario's
// WorkloadSpec; Run is deterministic given its inputs.
func Run(sc Scenario, w *workload.Workload, policy sched.Policy) (*RunResult, error) {
	return RunTraced(sc, w, policy, nil)
}

// runScratch holds the working buffers of one run, for either run loop.
// A zero value is ready to use; reusing one scratch across runs (RunPair)
// and across replications within a grid worker keeps the steady-state
// scheduling loop free of heap allocation.  Every run resets what it
// reads before reading it, so a scratch left dirty by a run of the other
// loop, or by a run that ended in an error, cannot leak into the next.  A
// scratch must not be shared between goroutines.
type runScratch struct {
	// Both loops: the event queue and the arrival stream handed to it,
	// when each machine drains its committed work (sched.Masked() while
	// down), the availability vector, the MCT scan's per-RD-slot decision
	// factors, busy time, the batch requests and schedule buffer, and
	// arrivals parked while every machine is down.
	q        *des.Queue
	arrivals []des.Event
	freeTime []float64
	avail    []float64
	tcw      []float64
	busy     []float64
	pending  []int
	asg      []sched.Assignment
	deferred []int

	// Event-per-task loop (see faultrun.go).
	up       []bool
	queue    [][]faultTask // committed, waiting for the machine
	running  []faultTask   // running[m].req == -1 when idle
	runStart []float64
	finishEv []des.FlatID
	requeues []int // per-request requeue counts, against the plan's cap
}

// prepare resets what both loops use for a run on nm machines: an empty
// queue at time zero (events a stopped run left behind included), every
// machine free from zero, no busy time and no pending or parked requests.
func (scr *runScratch) prepare(nm int) {
	if scr.q == nil {
		scr.q = des.NewQueue()
	}
	scr.q.Reset()
	scr.freeTime = zeroed(scr.freeTime, nm)
	scr.avail = growFloats(scr.avail, nm)
	scr.busy = zeroed(scr.busy, nm)
	scr.pending = scr.pending[:0]
	scr.deferred = scr.deferred[:0]
}

// growFloats returns s with length n, reallocating only when capacity is
// short; contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// zeroed returns s with length n and every element zero, reallocating
// only when capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// RunTraced is Run with an optional execution trace collector; pass nil
// to skip tracing (no overhead).
func RunTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace) (*RunResult, error) {
	return runTraced(sc, w, policy, tr, &runScratch{})
}

// Run loops
//
// There are two, and the scenario picks: a fault plan or a live trust
// model needs a task's Start and Finish as real, cancellable events
// (faultrun.go); without them a machine's timeline is determined the
// moment a task is committed to it, so the table-driven loop below
// collapses Start and Finish into the commit and its only events are
// arrivals and batch ticks.  What does not differ between the two is
// runBase: set-up and validation, the machines' drain times and every
// mapping decision over them, the arrival and batch-tick events, the
// ledger a commit and a completion are entered in, and the final metrics.
// A loop supplies the machineModel the scaffold calls back into; the
// scaffold never asks which loop that is.

// machineModel is the half of a run loop that differs: how its machines
// take work, keeping scr.freeTime current.
type machineModel interface {
	// commit puts request r on machine m.
	commit(r, m int, now float64)
}

// runBase is the scaffold both run loops embed.
type runBase struct {
	sc     Scenario
	truth  *workloadCosts // what a commit is charged
	dec    sched.Costs    // what the heuristics decide on: truth, unless a fault plan lies or a model learns
	policy sched.Policy
	loop   machineModel

	scr   *runScratch
	q     *des.Queue
	trace *trace.Trace

	imm   sched.Immediate // exactly one of imm and batch is set, by the scenario's mode
	batch sched.Batch
	mct   bool // the heuristic is MCT, which place runs as the fused scan
	kTick int32

	completed int
	tcSum     float64
	result    *RunResult
	err       error
}

// newRunBase validates the policy, and the workload against the scenario,
// and sets up the costs, the result and the scratch.
func newRunBase(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (runBase, error) {
	if err := policy.Validate(); err != nil {
		return runBase{}, err
	}
	truth, err := newWorkloadCosts(w)
	if err != nil {
		return runBase{}, err
	}
	if truth.NumRequests() != sc.Tasks || len(truth.rdOf) != sc.Machines {
		return runBase{}, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			truth.NumRequests(), len(truth.rdOf), sc.Tasks, sc.Machines)
	}
	// Event payloads carry a request id or a machine index as an int32.
	if sc.Tasks > math.MaxInt32 || sc.Machines > math.MaxInt32 {
		return runBase{}, fmt.Errorf("sim: instance exceeds the typed event payload range")
	}
	scr.prepare(sc.Machines)
	return runBase{
		sc:     sc,
		truth:  truth,
		dec:    truth,
		policy: policy,
		scr:    scr,
		q:      scr.q,
		trace:  tr,
		result: &RunResult{
			Policy:      policy.Name,
			Completions: &stats.Sample{},
			BusyTime:    make([]float64, sc.Machines),
		},
	}, nil
}

// start resolves the scenario's heuristic and schedules every arrival
// and, in batch mode, the first tick.  Events are typed (kind + request
// id), not closures, so the queue allocates nothing steady-state.  The
// arrivals go in as the queue's stream, in request order, which the queue
// checks and stable-sorts by time: they fire as one ScheduleAt per request
// in request order would have them, a bad arrival time fails with
// ScheduleAt's error, and the heap is left to the events the run creates.
// The queue reads the scratch's arrival buffer until the next Reset.
func (b *runBase) start(loop machineModel) error {
	b.loop = loop
	var err error
	if b.sc.Mode == Batch {
		b.batch, err = sched.BatchByName(b.sc.Heuristic)
	} else {
		b.imm, err = sched.ImmediateByName(b.sc.Heuristic)
	}
	if err != nil {
		return err
	}
	_, b.mct = b.imm.(sched.MCT)
	kArrival := b.q.RegisterKind(b.onArrival)
	arrivals := slices.Grow(b.scr.arrivals[:0], len(b.truth.w.Requests))
	for i := range b.truth.w.Requests {
		req := &b.truth.w.Requests[i]
		arrivals = append(arrivals, des.Event{At: req.ArrivalAt, Kind: kArrival, A: int32(req.ID)})
	}
	b.scr.arrivals = arrivals
	if err := b.q.Stream(arrivals); err != nil {
		return err
	}
	if b.batch == nil {
		return nil
	}
	b.kTick = b.q.RegisterKind(b.onTick)
	_, err = b.q.ScheduleAfter(b.sc.BatchInterval, b.kTick, 0, 0)
	return err
}

// onArrival is the arrival of request r.
func (b *runBase) onArrival(q *des.Queue, r, _ int32) {
	if b.err != nil {
		return
	}
	b.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(r), Machine: -1})
	b.submit(int(r), q.Now())
}

// submit hands request r to the mapper: in batch mode it joins the pending
// meta-request, in immediate mode it is placed now.
func (b *runBase) submit(r int, now float64) {
	if b.batch != nil {
		b.scr.pending = append(b.scr.pending, r)
		return
	}
	b.place(r, now)
}

// onTick is the batch tick: it maps the pending meta-request, unless there
// is none or no machine can take work, and re-arms itself every
// BatchInterval until all requests have completed; after the last arrival
// the next tick drains the final meta-request.  A failed re-arm ends the
// series too.
func (b *runBase) onTick(q *des.Queue, _, _ int32) {
	if b.err != nil {
		return
	}
	if len(b.scr.pending) > 0 {
		now := q.Now()
		if avail := b.availability(now); anyAvailable(avail) {
			b.record(trace.Event{
				Time: now, Kind: trace.BatchTick,
				Request: -1, Machine: -1, Cost: float64(len(b.scr.pending)),
			})
			b.flush(now, avail)
		}
	}
	if b.completed < b.sc.Tasks && b.err == nil {
		_, _ = q.ScheduleAfter(b.sc.BatchInterval, b.kTick, 0, 0)
	}
}

// anyAvailable reports whether some machine is not masked.
func anyAvailable(avail []float64) bool {
	for _, a := range avail {
		if !sched.IsMasked(a) {
			return true
		}
	}
	return false
}

// flush maps the pending meta-request and commits the schedule.  The
// arrival buffer and the schedule buffer are both recycled: reqs is fully
// consumed before any later event can append to the backing array again.
func (b *runBase) flush(now float64, avail []float64) {
	reqs := b.scr.pending
	b.scr.pending = reqs[:0]
	as, err := b.batch.AssignBatchInto(b.dec, b.policy, reqs, avail, b.scr.asg[:0])
	b.scr.asg = as[:0]
	if err == nil && len(as) != len(reqs) {
		err = fmt.Errorf("sim: batch heuristic mapped %d of %d requests", len(as), len(reqs))
	}
	if err != nil {
		b.fail(err)
		return
	}
	for _, a := range as {
		b.loop.commit(a.Req, a.Machine, now)
		if b.err != nil {
			return
		}
	}
}

// availability is max(free time, now), scratch valid until the next call:
// a machine already idle is available immediately, a down one stays
// masked.  The builtin max is inlined, where math.Max is not; the two
// differ only on NaN, which simulation times never are.
func (b *runBase) availability(now float64) []float64 {
	a := b.scr.avail
	for m, ft := range b.scr.freeTime {
		a[m] = max(ft, now)
	}
	return a
}

// place maps request r in immediate mode and commits it: MCT by the fused
// scan over its decision row, others by AssignOne.  While every machine is
// down the request is parked, unpriced, until a repair places it.
func (b *runBase) place(r int, now float64) {
	if !anyAvailable(b.scr.freeTime) {
		b.scr.deferred = append(b.scr.deferred, r)
		return
	}
	if !b.mct {
		a, err := b.imm.AssignOne(b.dec, b.policy, r, b.availability(now))
		if err != nil {
			b.fail(err)
			return
		}
		b.loop.commit(r, a.Machine, now)
		return
	}
	_, tcs, err := b.dec.CostRows(r)
	if err != nil {
		b.fail(err)
		return
	}
	m := b.fusedPick(r, now, tcs)
	if m < 0 {
		b.fail(fmt.Errorf("sim: %s found no machine for request %d", b.sc.Heuristic, r))
		return
	}
	b.loop.commit(r, m, now)
}

// charge prices request r on machine m at the truth, whatever the mapper
// believed: the policy's charged ECC and the true trust cost.
func (b *runBase) charge(r, m int) (ecc float64, tc int) {
	eec := b.truth.eecRow(r)[m]
	tc = b.truth.tcRow(r)[b.truth.rdOf[m]]
	return eec + b.policy.Charged().Cost(eec, tc), tc
}

// booked enters a scheduling commit in the ledger.
func (b *runBase) booked(r, m int, now, ecc float64, tc int) {
	b.record(trace.Event{Time: now, Kind: trace.Scheduled, Request: r, Machine: m, Cost: ecc})
	b.tcSum += float64(tc)
	b.result.Assigned++
}

// finished enters a completion in the ledger: request r ran ecc on machine
// m and finished at time at.  The last completion ends the run; on the
// event-per-task loop the crash/repair renewal chains would otherwise keep
// the queue alive forever.
func (b *runBase) finished(r, m int, at, ecc float64) {
	b.record(trace.Event{Time: at, Kind: trace.Finish, Request: r, Machine: m, Cost: ecc})
	b.scr.busy[m] += ecc
	req := &b.truth.w.Requests[r]
	b.result.Completions.Add(at - req.ArrivalAt)
	if req.Deadline > 0 && at > req.Deadline {
		b.result.DeadlineMisses++
	}
	if at > b.result.Makespan {
		b.result.Makespan = at
	}
	b.completed++
	if b.completed == b.sc.Tasks {
		b.q.Stop()
	}
}

// record appends a trace event when tracing is enabled.
func (b *runBase) record(e trace.Event) {
	if b.trace != nil {
		b.trace.Add(e)
	}
}

// fail records the first error and stops the simulation.
func (b *runBase) fail(err error) {
	if b.err == nil {
		b.err = err
	}
	b.q.Stop()
}

// run drains the event queue and returns the finalized result.
func (b *runBase) run() (*RunResult, error) {
	b.q.Run()
	if b.err != nil {
		return nil, b.err
	}
	if b.completed != b.sc.Tasks {
		return nil, fmt.Errorf("sim: only %d of %d requests completed", b.completed, b.sc.Tasks)
	}
	return b.finalize()
}

// finalize computes the aggregate metrics.
func (b *runBase) finalize() (*RunResult, error) {
	res := b.result
	res.AvgCompletionTime = res.Completions.Mean()
	res.P50Completion = res.Completions.Quantile(0.5)
	res.P95Completion = res.Completions.Quantile(0.95)
	copy(res.BusyTime, b.scr.busy)
	if res.Makespan <= 0 {
		return nil, fmt.Errorf("sim: degenerate makespan %g", res.Makespan)
	}
	util := 0.0
	for _, busy := range b.scr.busy {
		util += busy / res.Makespan
	}
	res.MeanUtilization = util / float64(len(b.scr.busy))
	res.MeanTrustCost = b.tcSum / float64(res.Assigned)
	res.DeadlineMissRate = float64(res.DeadlineMisses) / float64(b.completed)
	return res, nil
}

// The table-driven loop

// runState is the table-driven loop: a machine is its stacked free time,
// and a commit is a completion.
type runState struct {
	runBase
}

// runTraced is RunTraced with caller-provided scratch.
func runTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Fault.Active() || sc.dynamicTrust() {
		return runFaultTraced(sc, w, policy, tr, scr)
	}
	base, err := newRunBase(sc, w, policy, tr, scr)
	if err != nil {
		return nil, err
	}
	st := &runState{runBase: base}
	if err := st.start(st); err != nil {
		return nil, err
	}
	return st.run()
}

// commit places request r on machine m at time now: the task starts when
// the machine frees up, never before now, and runs for its charged ECC.
func (st *runState) commit(r, m int, now float64) {
	ecc, tc := st.charge(r, m)
	start := max(st.scr.freeTime[m], now)
	finish := start + ecc
	st.booked(r, m, now, ecc, tc)
	st.record(trace.Event{Time: start, Kind: trace.Start, Request: r, Machine: m, Cost: ecc})
	st.scr.freeTime[m] = finish
	st.finished(r, m, finish, ecc)
}

// fusedPick runs the MCT scan (sched.ScanMCT) for request r at time now
// over its decision trust costs per RD slot; -1 when every machine is
// masked.  The scan walks the EEC row, the machine → RD-slot map and the
// free-time vector directly, with the policy's decision factors per slot
// hoisted out of it, instead of calling through sched.Costs, and keeps
// sched.MCT's float operations, so scores, completion times and every
// derived metric are bit-identical to AssignOne's.  Only MCT is
// specialised, because only MCT has benchmark workloads that show the
// difference (sim_paper and sim_trust; DESIGN.md, "Run loops"): MET, OLB,
// KPB and SA run their AssignOne over the availability vector, as every
// batch heuristic runs its AssignBatch.  Free times meet the scan's
// precondition: they start at +0 and only grow by charged ECCs, and a
// down machine's is +Inf.
func (b *runBase) fusedPick(r int, now float64, tcs []int) int {
	f := b.policy.Decision().Factors(tcs, b.scr.tcw)
	if f != nil {
		b.scr.tcw = f
	}
	m, _ := sched.ScanMCT(b.truth.eecRow(r), f, b.truth.rdOf, b.scr.freeTime, now)
	return m
}
