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

// runScratch holds the per-run working buffers.  A zero value is ready to
// use; reusing one scratch across runs (RunPair) and across replications
// within a Compare worker keeps the steady-state scheduling loop free of
// heap allocation.  A scratch must not be shared between goroutines.
type runScratch struct {
	freeTime []float64
	busy     []float64
	avail    []float64
	pending  []int
	asg      []sched.Assignment

	// q is the flat event queue reused across runs on the fast path
	// (Reset keeps its buffers); shardM/shardV hold per-worker results
	// of sharded decision scans; tcw holds the per-RD-slot ESC factors
	// of the request being scanned.
	q      *des.Queue
	shardM []int
	shardV []float64
	tcw    []float64
}

// prepare sizes the buffers for nm machines and zeroes the accumulators.
func (scr *runScratch) prepare(nm int) {
	scr.freeTime = growFloats(scr.freeTime, nm)
	scr.busy = growFloats(scr.busy, nm)
	scr.avail = growFloats(scr.avail, nm)
	for m := 0; m < nm; m++ {
		scr.freeTime[m] = 0
		scr.busy[m] = 0
	}
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

// RunTraced is Run with an optional execution trace collector; pass nil
// to skip tracing (no overhead).
func RunTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace) (*RunResult, error) {
	return runTraced(sc, w, policy, tr, &runScratch{})
}

// runTraced is RunTraced with caller-provided scratch.
func runTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Fault.Active() || sc.dynamicTrust() {
		if ActiveKernel() == KernelFast {
			return runFaultTracedFlat(sc, w, policy, tr)
		}
		return runFaultTraced(sc, w, policy, tr)
	}
	if ActiveKernel() == KernelFast {
		return runTracedFlat(sc, w, policy, tr, scr)
	}
	costs, err := newWorkloadCosts(w)
	if err != nil {
		return nil, err
	}
	if costs.NumRequests() != sc.Tasks || costs.NumMachines() != sc.Machines {
		return nil, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			costs.NumRequests(), costs.NumMachines(), sc.Tasks, sc.Machines)
	}

	scr.prepare(sc.Machines)
	st := &runState{
		sc:     sc,
		costs:  costs,
		policy: policy,
		trace:  tr,
		scr:    scr,
		result: &RunResult{
			Policy:      policy.Name,
			Completions: &stats.Sample{},
			BusyTime:    make([]float64, sc.Machines),
		},
	}

	sim := des.New()
	switch sc.Mode {
	case Immediate:
		h, err := sched.ImmediateByName(sc.Heuristic)
		if err != nil {
			return nil, err
		}
		for i := range w.Requests {
			req := w.Requests[i]
			if _, err := sim.ScheduleAt(req.ArrivalAt, func(s *des.Simulator) {
				if st.err != nil {
					return
				}
				st.record(trace.Event{Time: s.Now(), Kind: trace.Arrival, Request: req.ID, Machine: -1})
				st.err = st.assignImmediate(h, req.ID, s.Now())
			}); err != nil {
				return nil, err
			}
		}
	case Batch:
		h, err := sched.BatchByName(sc.Heuristic)
		if err != nil {
			return nil, err
		}
		for i := range w.Requests {
			req := w.Requests[i]
			if _, err := sim.ScheduleAt(req.ArrivalAt, func(s *des.Simulator) {
				st.record(trace.Event{Time: s.Now(), Kind: trace.Arrival, Request: req.ID, Machine: -1})
				st.scr.pending = append(st.scr.pending, req.ID)
			}); err != nil {
				return nil, err
			}
		}
		// Batch ticks every BatchInterval until all requests are
		// scheduled; after the last arrival the next tick drains the
		// final meta-request.
		if _, err := sim.Periodic(sc.BatchInterval, func(s *des.Simulator) bool {
			if st.err != nil {
				return false
			}
			if len(st.scr.pending) > 0 {
				st.record(trace.Event{
					Time: s.Now(), Kind: trace.BatchTick,
					Request: -1, Machine: -1, Cost: float64(len(st.scr.pending)),
				})
				st.err = st.assignBatch(h, s.Now())
			}
			return st.result.Assigned < sc.Tasks && st.err == nil
		}); err != nil {
			return nil, err
		}
	}

	sim.Run()
	if st.err != nil {
		return nil, st.err
	}
	if st.result.Assigned != sc.Tasks {
		return nil, fmt.Errorf("sim: only %d of %d requests scheduled", st.result.Assigned, sc.Tasks)
	}
	return st.finalize(w)
}

// runState carries the mutable simulation state shared by event handlers.
// scr.freeTime[m] is the absolute time machine m finishes its committed
// work; scr.busy[m] accumulates charged service time; scr.pending holds
// batch-mode requests awaiting the next meta-request.
type runState struct {
	sc     Scenario
	costs  *workloadCosts
	policy sched.Policy

	scr   *runScratch
	trace *trace.Trace

	// intraW and shardMin snapshot the intra-replication sharding knobs
	// at run entry (fast path only) so one run never mixes settings.
	intraW   int
	shardMin int

	tcSum  float64
	result *RunResult
	err    error
}

// availability returns the scheduler's availability vector at time now:
// a machine already idle is available immediately.  The returned slice is
// scratch, valid until the next call; heuristics never mutate or retain
// it.
func (st *runState) availability(now float64) []float64 {
	a := st.scr.avail
	for m, ft := range st.scr.freeTime {
		a[m] = math.Max(ft, now)
	}
	return a
}

// record appends a trace event when tracing is enabled.
func (st *runState) record(e trace.Event) {
	if st.trace != nil {
		st.trace.Add(e)
	}
}

// commit places request r on machine m at time now: the task starts when
// the machine frees up (never before now) and runs for its charged ECC.
func (st *runState) commit(r, m int, now, arrival float64) error {
	ecc, err := sched.ChargedECC(st.costs, st.policy, r, m)
	if err != nil {
		return err
	}
	tc, err := st.costs.TrustCost(r, m)
	if err != nil {
		return err
	}
	st.commitCosted(r, m, now, arrival, ecc, tc)
	return nil
}

// commitCosted is commit with the charged ECC and TC already computed;
// the fast path's fused scans call it directly with inlined arithmetic
// that reproduces ChargedECC operation for operation.
func (st *runState) commitCosted(r, m int, now, arrival, ecc float64, tc int) {
	deadline := st.costs.w.Requests[r].Deadline
	start := math.Max(st.scr.freeTime[m], now)
	finish := start + ecc
	st.record(trace.Event{Time: now, Kind: trace.Scheduled, Request: r, Machine: m, Cost: ecc})
	st.record(trace.Event{Time: start, Kind: trace.Start, Request: r, Machine: m, Cost: ecc})
	st.record(trace.Event{Time: finish, Kind: trace.Finish, Request: r, Machine: m, Cost: ecc})
	st.scr.freeTime[m] = finish
	st.scr.busy[m] += ecc
	st.tcSum += float64(tc)
	st.result.Completions.Add(finish - arrival)
	if deadline > 0 && finish > deadline {
		st.result.DeadlineMisses++
	}
	if finish > st.result.Makespan {
		st.result.Makespan = finish
	}
	st.result.Assigned++
}

// assignImmediate maps one arriving request.
func (st *runState) assignImmediate(h sched.Immediate, r int, now float64) error {
	a, err := h.AssignOne(st.costs, st.policy, r, st.availability(now))
	if err != nil {
		return err
	}
	return st.commit(r, a.Machine, now, now)
}

// assignBatch maps the pending meta-request.  The arrival buffer and the
// schedule buffer are both recycled: reqs is fully consumed before any
// later arrival event can append to the backing array again.
func (st *runState) assignBatch(h sched.Batch, now float64) error {
	reqs := st.scr.pending
	st.scr.pending = st.scr.pending[:0]
	var as []sched.Assignment
	var err error
	if bi, ok := h.(sched.BatchInto); ok {
		as, err = bi.AssignBatchInto(st.costs, st.policy, reqs, st.availability(now), st.scr.asg[:0])
		st.scr.asg = as[:0]
	} else {
		as, err = h.AssignBatch(st.costs, st.policy, reqs, st.availability(now))
	}
	if err != nil {
		return err
	}
	if len(as) != len(reqs) {
		return fmt.Errorf("sim: batch heuristic mapped %d of %d requests", len(as), len(reqs))
	}
	for _, asg := range as {
		arrival := st.costs.w.Requests[asg.Req].ArrivalAt
		if err := st.commit(asg.Req, asg.Machine, now, arrival); err != nil {
			return err
		}
	}
	return nil
}

// finalize computes the aggregate metrics.
func (st *runState) finalize(w *workload.Workload) (*RunResult, error) {
	res := st.result
	res.AvgCompletionTime = res.Completions.Mean()
	res.P50Completion = res.Completions.Quantile(0.5)
	res.P95Completion = res.Completions.Quantile(0.95)
	copy(res.BusyTime, st.scr.busy)
	if res.Makespan <= 0 {
		return nil, fmt.Errorf("sim: degenerate makespan %g", res.Makespan)
	}
	util := 0.0
	for _, b := range st.scr.busy {
		util += b / res.Makespan
	}
	res.MeanUtilization = util / float64(len(st.scr.busy))
	res.MeanTrustCost = st.tcSum / float64(res.Assigned)
	res.DeadlineMissRate = float64(res.DeadlineMisses) / float64(res.Assigned)
	_ = w
	return res, nil
}
