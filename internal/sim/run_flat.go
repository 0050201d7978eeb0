package sim

import (
	"fmt"
	"math"
	"sync"

	"gridtrust/internal/des"
	"gridtrust/internal/sched"
	"gridtrust/internal/stats"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// Fast-path simulation on the flat typed-event queue
//
// runTracedFlat executes the identical logical event sequence as the
// reference path in run.go — the same schedule calls in the same order,
// so the kernel-equivalence guarantee of internal/des (equal fire order,
// FIFO tie-breaks by schedule order) carries the whole run — while
// eliminating the reference path's per-event costs:
//
//   - events are typed (kind + request id), not closures: zero
//     allocations steady-state in the queue;
//   - the MCT/MET/OLB decision scans are fused: they walk the EEC row,
//     the machine → RD-slot map and the free-time vector directly,
//     computing the policy's closed-form ESC inline from the request's
//     per-slot trust costs instead of calling through sched.Costs and
//     the policy func values.  Each fused expression reproduces the
//     reference float operations exactly (see ESCForm), so scores,
//     completion times and every derived metric are bit-identical;
//   - with SetIntraWorkers(n > 1), wide machine scans are sharded into n
//     contiguous ranges.  Every range is scanned with the same strict-<
//     first-minimum rule and the shard results are merged in shard order
//     with strict <, which selects exactly the machine the serial scan
//     would: the first index attaining the global minimum.  Results are
//     therefore identical under any worker count.
//
// Heuristics without a fused form (KPB, SA, all batch heuristics) run
// their existing AssignOne/AssignBatch code over the same availability
// vector, still gaining the typed-queue savings.

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
// max is bit-identical to the reference's math.Max here: simulation
// times are finite and non-negative, so the NaN and signed-zero cases
// that distinguish them cannot arise.  Each ESC expression keeps the
// reference parenthesization — in particular availability + (eec + esc),
// never (availability + eec) + esc — so every sum rounds identically.
//
// Under ESCLinear the trust cost enters through tcw, the request's
// per-slot product float64(tc)*weight (the innermost factor of the
// reference expression, hoisted out of the machine loop), indexed by the
// machine's RD slot; the other forms ignore tcw and rdOf.
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

// fusedPick runs the decision scan for request r at time now, sharding
// across st.intraW workers when the machine set is wide enough.
func (st *runState) fusedPick(scan fusedScan, dec fusedESC, r int, now float64) int {
	eec := st.costs.eecRow(r)
	rdOf := st.costs.rdOf
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
	nm := len(ft)
	w := st.intraW
	if w > 1 && nm >= w*st.shardMin {
		return st.fusedPickSharded(scan, dec, eec, tcw, rdOf, ft, now, w)
	}
	m, _ := fusedScanRange(scan, dec, eec, tcw, rdOf, ft, now, 0, nm)
	return m
}

// fusedPickSharded fans the scan out over w contiguous shards and merges
// in shard order.  Shard k covers [k·nm/w, (k+1)·nm/w); the strict-<
// merge keeps the earliest shard on ties, so the composite selection is
// exactly the serial scan's first minimum.
func (st *runState) fusedPickSharded(scan fusedScan, dec fusedESC, eec, tcw []float64, rdOf []int32, ft []float64, now float64, w int) int {
	nm := len(ft)
	if len(st.scr.shardM) < w {
		st.scr.shardM = make([]int, w)
		st.scr.shardV = make([]float64, w)
	}
	bestM := st.scr.shardM[:w]
	bestV := st.scr.shardV[:w]
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			bestM[k], bestV[k] = fusedScanRange(scan, dec, eec, tcw, rdOf, ft, now, k*nm/w, (k+1)*nm/w)
		}(k)
	}
	bestM[0], bestV[0] = fusedScanRange(scan, dec, eec, tcw, rdOf, ft, now, 0, nm/w)
	wg.Wait()
	best := -1
	bestVal := math.Inf(1)
	for k := 0; k < w; k++ {
		if bestM[k] >= 0 && bestV[k] < bestVal {
			bestVal, best = bestV[k], bestM[k]
		}
	}
	return best
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

// runTracedFlat is runTraced's fault-free body on the flat queue.
func runTracedFlat(sc Scenario, w *workload.Workload, policy sched.Policy, tr *trace.Trace, scr *runScratch) (*RunResult, error) {
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
		sc:       sc,
		costs:    costs,
		policy:   policy,
		trace:    tr,
		scr:      scr,
		intraW:   IntraWorkers(),
		shardMin: int(intraShardMin.Load()),
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
		// The tick handler mirrors des.Periodic's wrapper around the
		// reference path's tick body: run the body, then re-arm unless
		// it ended the series; a failed re-arm ends the series too.
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
	return st.finalize(w)
}
