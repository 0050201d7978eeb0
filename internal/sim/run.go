package sim

import (
	"fmt"
	"math"

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
	// Both loops: the event queue, the availability vector handed to the
	// heuristics, per-machine busy time, the batch-mode requests awaiting
	// the next tick and the schedule buffer the batch flush recycles.
	q       *des.Queue
	avail   []float64
	busy    []float64
	pending []int
	asg     []sched.Assignment

	// Table-driven loop: freeTime[m] is the absolute time machine m
	// finishes its committed work; tcw holds the per-RD-slot ESC factors
	// of the request being scanned.
	freeTime []float64
	tcw      []float64

	// Event-per-task loop (see faultrun.go).
	up       []bool
	queue    [][]faultTask // committed, waiting for the machine
	running  []faultTask   // running[m].req == -1 when idle
	runStart []float64
	finishEv []des.FlatID
	deferred []int // immediate mode: arrivals seen while every machine was down
	requeues []int // per-request requeue counts, against the plan's cap
}

// prepare resets what both loops use for a run on nm machines: an empty
// queue at time zero (events a stopped run left behind included), zeroed
// busy time and no pending requests.
func (scr *runScratch) prepare(nm int) {
	if scr.q == nil {
		scr.q = des.NewQueue()
	}
	scr.q.Reset()
	scr.avail = growFloats(scr.avail, nm)
	scr.busy = zeroed(scr.busy, nm)
	scr.pending = scr.pending[:0]
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
// runBase: set-up and validation, the arrival and batch-tick events, the
// batch flush, the ledger a commit and a completion are entered in, and
// the final metrics.  A loop supplies the machineModel the scaffold calls
// back into; the scaffold never asks which loop that is.

// machineModel is the half of a run loop that differs: how its machines
// take work.
type machineModel interface {
	// availability returns the scheduler's availability vector at time
	// now, sched.Masked() for a machine that cannot take work.  The slice
	// is scratch, valid until the next call; heuristics never mutate or
	// retain it.
	availability(now float64) []float64
	// place maps request r in immediate mode.
	place(r int, now float64)
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
	kTick int32

	completed int
	tcSum     float64
	result    *RunResult
	err       error
}

// newRunBase validates the workload against the scenario and sets up the
// costs, the result and the scratch.
func newRunBase(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (runBase, error) {
	truth, err := newWorkloadCosts(w)
	if err != nil {
		return runBase{}, err
	}
	if truth.NumRequests() != sc.Tasks || truth.NumMachines() != sc.Machines {
		return runBase{}, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			truth.NumRequests(), truth.NumMachines(), sc.Tasks, sc.Machines)
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
// id), not closures, so the queue allocates nothing steady-state.
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
	kArrival := b.q.RegisterKind(b.onArrival)
	for i := range b.truth.w.Requests {
		req := &b.truth.w.Requests[i]
		if _, err := b.q.ScheduleAt(req.ArrivalAt, kArrival, int32(req.ID), 0); err != nil {
			return err
		}
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
// meta-request, in immediate mode the loop places it now.
func (b *runBase) submit(r int, now float64) {
	if b.batch != nil {
		b.scr.pending = append(b.scr.pending, r)
		return
	}
	b.loop.place(r, now)
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
		if avail := b.loop.availability(now); anyAvailable(avail) {
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
	var as []sched.Assignment
	var err error
	if bi, ok := b.batch.(sched.BatchInto); ok {
		as, err = bi.AssignBatchInto(b.dec, b.policy, reqs, avail, b.scr.asg[:0])
		b.scr.asg = as[:0]
	} else {
		as, err = b.batch.AssignBatch(b.dec, b.policy, reqs, avail)
	}
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

// mapOne maps request r through the immediate heuristic's AssignOne and
// commits it.
func (b *runBase) mapOne(r int, now float64, avail []float64) {
	a, err := b.imm.AssignOne(b.dec, b.policy, r, avail)
	if err != nil {
		b.fail(err)
		return
	}
	b.loop.commit(r, a.Machine, now)
}

// charge prices request r on machine m at the truth, whatever the mapper
// believed: the policy's charged ECC and the true trust cost.
func (b *runBase) charge(r, m int) (ecc float64, tc int, err error) {
	if ecc, err = sched.ChargedECC(b.truth, b.policy, r, m); err != nil {
		return 0, 0, err
	}
	tc, err = b.truth.TrustCost(r, m)
	return ecc, tc, err
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

	// The fused MCT scan and the policy's closed ESC forms, for immediate
	// mode (see below).
	scan           fusedScan
	decESC, chgESC fusedESC
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
	scr.freeTime = zeroed(scr.freeTime, sc.Machines)
	if err := st.start(st); err != nil {
		return nil, err
	}
	st.scan = fusedScanFor(st.imm, policy)
	st.decESC.form, st.decESC.w = policy.DecisionForm()
	st.chgESC.form, st.chgESC.w = policy.ChargedForm()
	return st.run()
}

// availability is max(free time, now): a machine already idle is available
// immediately.  The builtin max is inlined, where math.Max is not; the two
// differ only on NaN, which simulation times never are.
func (st *runState) availability(now float64) []float64 {
	a := st.scr.avail
	for m, ft := range st.scr.freeTime {
		a[m] = max(ft, now)
	}
	return a
}

// place maps one arriving request: by the fused scan when the heuristic and
// the policy have one, charging the ECC inline when the policy's charged
// form is closed too.
func (st *runState) place(r int, now float64) {
	if st.scan == fusedNone {
		st.mapOne(r, now, st.availability(now))
		return
	}
	m := st.fusedPick(r, now)
	if m < 0 {
		st.fail(fmt.Errorf("sim: %s found no machine for request %d", st.sc.Heuristic, r))
		return
	}
	if st.chgESC.form == sched.ESCOpaque {
		st.commit(r, m, now)
		return
	}
	eec := st.truth.eecRow(r)[m]
	tc := st.truth.tcRow(r)[st.truth.rdOf[m]]
	st.commitCosted(r, m, now, st.chgESC.ecc(eec, tc), tc)
}

// commit places request r on machine m at time now.
func (st *runState) commit(r, m int, now float64) {
	ecc, tc, err := st.charge(r, m)
	if err != nil {
		st.fail(err)
		return
	}
	st.commitCosted(r, m, now, ecc, tc)
}

// commitCosted is commit with the charged ECC and TC already computed (by
// place, with inlined arithmetic that reproduces ChargedECC operation for
// operation): the task starts when the machine frees up, never before now,
// and runs for its charged ECC.
func (st *runState) commitCosted(r, m int, now, ecc float64, tc int) {
	start := max(st.scr.freeTime[m], now)
	finish := start + ecc
	st.booked(r, m, now, ecc, tc)
	st.record(trace.Event{Time: start, Kind: trace.Start, Request: r, Machine: m, Cost: ecc})
	st.scr.freeTime[m] = finish
	st.finished(r, m, finish, ecc)
}

// The fused MCT scan
//
// The MCT arrival scan walks the EEC row, the machine → RD-slot map and the
// free-time vector directly, computing the policy's closed-form ESC inline
// from the request's per-slot trust costs instead of calling through
// sched.Costs and the policy func values.  Each fused expression
// reproduces the float operations of sched.MCT exactly (see
// sched.ESCForm), so scores, completion times and every derived metric are
// bit-identical to AssignOne's.  Only MCT is specialised, because only MCT
// has a benchmark workload that shows the difference (sim_paper loses 5 %
// of its throughput on sched.MCT.AssignOne; DESIGN.md, "Run loops"): MET,
// OLB, KPB and SA run their AssignOne over the availability vector, as
// every batch heuristic runs its AssignBatch.

// fusedScan names the immediate-mode heuristics with a fused fast scan.
type fusedScan int

const (
	fusedNone fusedScan = iota
	fusedMCT
)

// fusedScanFor returns the fused scan for the heuristic, or fusedNone
// when the heuristic or the policy's decision form has no closed form.
func fusedScanFor(h sched.Immediate, p sched.Policy) fusedScan {
	if form, _ := p.DecisionForm(); form == sched.ESCOpaque {
		return fusedNone
	}
	if _, ok := h.(sched.MCT); ok {
		return fusedMCT
	}
	return fusedNone
}

// fusedESC holds one ESC closed form for inline evaluation.
type fusedESC struct {
	form sched.ESCForm
	w    float64
}

// ecc computes EEC + ESC with the same float operations as
// sched.decisionECC / sched.ChargedECC under the corresponding policy.
// For ESCZero the sum eec + 0.0 is the identity because EEC >= 0.
func (f fusedESC) ecc(eec float64, tc int) float64 {
	switch f.form {
	case sched.ESCLinear:
		return eec + eec*(float64(tc)*f.w)/100
	case sched.ESCFlat:
		return eec + eec*f.w/100
	default: // ESCZero
		return eec
	}
}

// fusedScanRange scans machines [lo,hi) and returns the first machine
// attaining the minimum decision completion time and that minimum;
// (-1, +Inf) when the range is empty.
//
// The inner loops are specialized per form so the hot path carries no
// per-iteration dispatch, and the slices are re-sliced to the range up
// front so the compiler drops the bounds checks.  Each ESC expression keeps
// sched's parenthesization — in particular availability + (eec + esc),
// never (availability + eec) + esc — so every sum rounds identically.
//
// The clamp max(ft[i], now) is taken on the IEEE bit patterns so that it
// compiles to a conditional move: under sim_paper's load whether a machine
// is busy changes from machine to machine, a compare-and-branch there was
// mispredicted often enough to be most of the scan's cost, and the builtin
// float max was slower than the branch with every machine idle (DESIGN.md
// §13, "Run loops").  Precondition: every ft[i] is ≥ +0 and not NaN (free
// time starts at +0 and only grows by charged ECCs), and now is ≥ −0 and
// not NaN, read as +0 when it is −0 (now + 0).  For such floats unsigned
// order of the bits is float order, so the result is bit-identical to
// sched.MCT's math.Max and to the branching clamp;
// TestFusedScanMatchesReference and FuzzFusedScan hold the function to the
// latter.
//
// Under ESCLinear the trust cost enters through tcw, the request's
// per-slot product float64(tc)*weight (the innermost factor of sched's
// expression, hoisted out of the machine loop), indexed by the machine's
// RD slot; the other forms ignore tcw and rdOf.
//
// The only caller passes the whole machine set.  The range form stays
// because these loops are sensitive to where they land in the function:
// the same instructions behind a shorter prologue (no lo/hi, one result)
// ran the MCT legs 5-12 % slower on the benchmark box (EXPERIMENTS.md,
// "-intra").  Reshape this function only with a paired measurement.
func fusedScanRange(dec fusedESC, eec, tcw []float64, rdOf []int32, ft []float64, now float64, lo, hi int) (int, float64) {
	best := -1
	bestVal := math.Inf(1)
	if lo >= hi {
		return best, bestVal
	}
	eec, rdOf, ft = eec[lo:hi:hi], rdOf[lo:hi:hi], ft[lo:hi:hi]
	nowBits := math.Float64bits(now + 0)
	switch dec.form {
	case sched.ESCLinear:
		for i, e := range eec {
			a := math.Float64frombits(max(math.Float64bits(ft[i]), nowBits))
			if done := a + (e + e*tcw[rdOf[i]]/100); done < bestVal {
				bestVal, best = done, i
			}
		}
	case sched.ESCFlat:
		for i, e := range eec {
			a := math.Float64frombits(max(math.Float64bits(ft[i]), nowBits))
			if done := a + (e + e*dec.w/100); done < bestVal {
				bestVal, best = done, i
			}
		}
	default: // ESCZero
		for i, e := range eec {
			a := math.Float64frombits(max(math.Float64bits(ft[i]), nowBits))
			if done := a + e; done < bestVal {
				bestVal, best = done, i
			}
		}
	}
	if best >= 0 {
		best += lo
	}
	return best, bestVal
}

// fusedPick runs the MCT scan for request r at time now.
func (st *runState) fusedPick(r int, now float64) int {
	var tcw []float64
	if st.decESC.form == sched.ESCLinear {
		tcs := st.truth.tcRow(r)
		st.scr.tcw = growFloats(st.scr.tcw, len(tcs))
		tcw = st.scr.tcw
		for s, tc := range tcs {
			tcw[s] = float64(tc) * st.decESC.w
		}
	}
	ft := st.scr.freeTime
	m, _ := fusedScanRange(st.decESC, st.truth.eecRow(r), tcw, st.truth.rdOf, ft, now, 0, len(ft))
	return m
}
