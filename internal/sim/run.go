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

	// q is the event queue, reused across runs (Reset keeps its
	// buffers); tcw holds the per-RD-slot ESC factors of the request
	// being scanned.
	q   *des.Queue
	tcw []float64
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
//
// A fault-free run on the static trust table collapses a task's Start and
// Finish into its commit: once a machine's queue position is known the
// timeline is determined, so the only events are arrivals and batch
// ticks.  Events are typed (kind + request id), not closures, so the
// queue allocates nothing steady-state.  Fault plans and live trust
// models need Start and Finish as real events; runFaultTraced runs those.
func runTraced(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if sc.Fault.Active() || sc.dynamicTrust() {
		return runFaultTraced(sc, w, policy, tr)
	}
	costs, err := newWorkloadCosts(w)
	if err != nil {
		return nil, err
	}
	if costs.NumRequests() != sc.Tasks || costs.NumMachines() != sc.Machines {
		return nil, fmt.Errorf("sim: workload shape %dx%d does not match scenario %dx%d",
			costs.NumRequests(), costs.NumMachines(), sc.Tasks, sc.Machines)
	}
	if sc.Tasks > math.MaxInt32 {
		return nil, fmt.Errorf("sim: %d tasks exceed the typed event payload range", sc.Tasks)
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

	if scr.q == nil {
		scr.q = des.NewQueue()
	}
	q := scr.q
	q.Reset()

	switch sc.Mode {
	case Immediate:
		h, err := sched.ImmediateByName(sc.Heuristic)
		if err != nil {
			return nil, err
		}
		scan := fusedScanFor(h, policy)
		chForm, chW := policy.ChargedForm()
		charge := fusedESC{form: chForm, w: chW}
		chargeOpaque := chForm == sched.ESCOpaque
		decForm, decW := policy.DecisionForm()
		dec := fusedESC{form: decForm, w: decW}
		kindArrival := q.RegisterKind(func(q *des.Queue, a, _ int32) {
			if st.err != nil {
				return
			}
			r := int(a)
			now := q.Now()
			st.record(trace.Event{Time: now, Kind: trace.Arrival, Request: r, Machine: -1})
			if scan == fusedNone {
				st.err = st.assignImmediate(h, r, now)
				return
			}
			m := st.fusedPick(scan, dec, r, now)
			if m < 0 {
				st.err = fmt.Errorf("sim: %s found no machine for request %d", sc.Heuristic, r)
				return
			}
			st.err = st.commitFused(charge, chargeOpaque, r, m, now, now)
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := q.ScheduleAt(req.ArrivalAt, kindArrival, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
	case Batch:
		h, err := sched.BatchByName(sc.Heuristic)
		if err != nil {
			return nil, err
		}
		kindArrival := q.RegisterKind(func(q *des.Queue, a, _ int32) {
			st.record(trace.Event{Time: q.Now(), Kind: trace.Arrival, Request: int(a), Machine: -1})
			st.scr.pending = append(st.scr.pending, int(a))
		})
		// Batch ticks every BatchInterval until all requests are
		// scheduled; after the last arrival the next tick drains the
		// final meta-request.  A failed re-arm ends the series too.
		var kindTick int32
		kindTick = q.RegisterKind(func(q *des.Queue, _, _ int32) {
			if st.err != nil {
				return
			}
			if len(st.scr.pending) > 0 {
				st.record(trace.Event{
					Time: q.Now(), Kind: trace.BatchTick,
					Request: -1, Machine: -1, Cost: float64(len(st.scr.pending)),
				})
				st.err = st.assignBatch(h, q.Now())
			}
			if st.result.Assigned < sc.Tasks && st.err == nil {
				_, _ = q.ScheduleAfter(sc.BatchInterval, kindTick, 0, 0)
			}
		})
		for i := range w.Requests {
			req := &w.Requests[i]
			if _, err := q.ScheduleAt(req.ArrivalAt, kindArrival, int32(req.ID), 0); err != nil {
				return nil, err
			}
		}
		if _, err := q.ScheduleAfter(sc.BatchInterval, kindTick, 0, 0); err != nil {
			return nil, err
		}
	}

	q.Run()
	if st.err != nil {
		return nil, st.err
	}
	if st.result.Assigned != sc.Tasks {
		return nil, fmt.Errorf("sim: only %d of %d requests scheduled", st.result.Assigned, sc.Tasks)
	}
	return st.finalize()
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
// commitFused calls it directly with inlined arithmetic that reproduces
// ChargedECC operation for operation.
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
func (st *runState) finalize() (*RunResult, error) {
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
	return res, nil
}

// Fused decision scans
//
// The MCT/MET/OLB arrival scans walk the EEC row, the machine → RD-slot
// map and the free-time vector directly, computing the policy's
// closed-form ESC inline from the request's per-slot trust costs instead
// of calling through sched.Costs and the policy func values.  Each fused
// expression reproduces the float operations of the generic heuristic
// exactly (see sched.ESCForm), so scores, completion times and every
// derived metric are bit-identical to AssignOne's.  Heuristics without a
// fused form (KPB, SA, all batch heuristics) run their AssignOne or
// AssignBatch code over the same availability vector.

// fusedScan names the immediate-mode heuristics with a fused fast scan.
type fusedScan int

const (
	fusedNone fusedScan = iota
	fusedMCT
	fusedMET
	fusedOLB
)

// fusedScanFor returns the fused scan for the heuristic, or fusedNone
// when the heuristic or the policy's decision form has no closed form.
func fusedScanFor(h sched.Immediate, p sched.Policy) fusedScan {
	if form, _ := p.DecisionForm(); form == sched.ESCOpaque {
		return fusedNone
	}
	switch h.(type) {
	case sched.MCT:
		return fusedMCT
	case sched.MET:
		return fusedMET
	case sched.OLB:
		return fusedOLB
	default:
		return fusedNone
	}
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
// attaining the scan's minimum (decision completion for MCT, decision
// ECC for MET, availability for OLB) and that minimum; (-1, +Inf) when
// the range is empty or fully masked.
//
// The inner loops are specialized per (scan, form) so the hot path
// carries no per-iteration dispatch, and the slices are re-sliced to the
// range up front so the compiler drops the bounds checks.  The manual
// max is bit-identical to the generic heuristics' math.Max here:
// simulation times are finite and non-negative, so the NaN and
// signed-zero cases that distinguish them cannot arise.  Each ESC
// expression keeps sched's parenthesization — in particular
// availability + (eec + esc), never (availability + eec) + esc — so every
// sum rounds identically.
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
func fusedScanRange(scan fusedScan, dec fusedESC, eec, tcw []float64, rdOf []int32, ft []float64, now float64, lo, hi int) (int, float64) {
	best := -1
	bestVal := math.Inf(1)
	if lo >= hi {
		return best, bestVal
	}
	eec, rdOf, ft = eec[lo:hi:hi], rdOf[lo:hi:hi], ft[lo:hi:hi]
	switch scan {
	case fusedMCT:
		switch dec.form {
		case sched.ESCLinear:
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if done := a + (e + e*tcw[rdOf[i]]/100); done < bestVal {
					bestVal, best = done, i
				}
			}
		case sched.ESCFlat:
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if done := a + (e + e*dec.w/100); done < bestVal {
					bestVal, best = done, i
				}
			}
		default: // ESCZero
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if done := a + e; done < bestVal {
					bestVal, best = done, i
				}
			}
		}
	case fusedMET:
		switch dec.form {
		case sched.ESCLinear:
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if sched.IsMasked(a) {
					continue
				}
				if ecc := e + e*tcw[rdOf[i]]/100; ecc < bestVal {
					bestVal, best = ecc, i
				}
			}
		case sched.ESCFlat:
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if sched.IsMasked(a) {
					continue
				}
				if ecc := e + e*dec.w/100; ecc < bestVal {
					bestVal, best = ecc, i
				}
			}
		default:
			for i, e := range eec {
				a := ft[i]
				if a < now {
					a = now
				}
				if sched.IsMasked(a) {
					continue
				}
				if e < bestVal {
					bestVal, best = e, i
				}
			}
		}
	case fusedOLB:
		for i := range ft {
			a := ft[i]
			if a < now {
				a = now
			}
			if a < bestVal {
				bestVal, best = a, i
			}
		}
	}
	if best >= 0 {
		best += lo
	}
	return best, bestVal
}

// fusedPick runs the decision scan for request r at time now.
func (st *runState) fusedPick(scan fusedScan, dec fusedESC, r int, now float64) int {
	var tcw []float64
	if dec.form == sched.ESCLinear {
		tcs := st.costs.tcRow(r)
		st.scr.tcw = growFloats(st.scr.tcw, len(tcs))
		tcw = st.scr.tcw
		for s, tc := range tcs {
			tcw[s] = float64(tc) * dec.w
		}
	}
	ft := st.scr.freeTime
	m, _ := fusedScanRange(scan, dec, st.costs.eecRow(r), tcw, st.costs.rdOf, ft, now, 0, len(ft))
	return m
}

// commitFused commits request r to machine m, computing the charged ECC
// inline when the policy's charged form is closed.
func (st *runState) commitFused(ch fusedESC, opaque bool, r, m int, now, arrival float64) error {
	if opaque {
		return st.commit(r, m, now, arrival)
	}
	eec := st.costs.eecRow(r)[m]
	tc := st.costs.tcRow(r)[st.costs.rdOf[m]]
	st.commitCosted(r, m, now, arrival, ch.ecc(eec, tc), tc)
	return nil
}
