package sched

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the optimized batch-mapping kernels behind MinMin,
// MaxMin, Sufferage and Duplex.  The naive implementations they replace
// live in reference_test.go; the two are kept assignment-for-assignment
// identical (see kernel_equiv_test.go and FuzzKernelEquivalence).
//
// The classic formulation of the batch heuristics rescans all remaining
// (task, machine) pairs after every commitment — O(T²·M) per batch.  But a
// commitment changes exactly one machine's availability, and availability
// only ever increases, so a task's cached best (first-minimum) completion
// pair stays valid unless its cached best — or, for Sufferage, second-best
// — machine is the one that changed.  The kernels cache the
// (best, second-best) pair per task and recompute a row lazily only when
// its cached machines are invalidated, bringing the common case to
// O(T² + T·M·k) where k is the (small) number of invalidations per round.
//
// Tie-breaking contract (must match the reference scans exactly):
//   - within a task's row, the lowest-indexed machine attaining the
//     minimum wins (ascending scan, strict-< replacement);
//   - across tasks, the lowest task position in the meta-request wins
//     (the reference scans `remaining` in ascending-position order with a
//     strict comparison; swap-deletion here permutes the set, so the rule
//     is restored explicitly by comparing task positions on value ties).
//
// All scratch lives in a pooled kernelState so steady-state batch mapping
// performs no heap allocation beyond the returned schedule — and none at
// all through the AssignBatchInto entry points when the caller recycles
// the destination slice.

// BatchInto is implemented by batch heuristics that can append the
// schedule into a caller-provided slice, enabling allocation-free
// steady-state mapping.  The returned slice is dst (grown as needed) and
// follows the same ordering contract as AssignBatch.
type BatchInto interface {
	AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error)
}

// kernelState is the reusable scratch of the batch kernels.  States are
// pooled; every slice is length-managed by grow and fully (re)initialised
// by the kernel that checks the state out, so stale contents are harmless.
type kernelState struct {
	table  []float64 // decision ECCs, len T*M, row stride M
	avail  []float64 // working copy of the availability vector
	factor []float64 // per-index ESC factors of the row being filled

	remaining []int // task positions not yet committed

	// Cached completion pairs per task position: best is the
	// first-minimum of the row scan, second the second-smallest value
	// (with the machine the scan attributed it to).
	bestM   []int
	bestD   []float64
	secondM []int
	secondD []float64

	// Sufferage sweep scratch, hoisted out of the per-iteration loop.
	holder   []int
	sufferOf []float64
	doneOf   []float64
	assigned []bool

	// Lazy-invalidation stamps for Sufferage: a cached pair is stale iff
	// its best or second-best machine changed at or after the sweep the
	// pair was computed in.
	changedAt []int
	cachedAt  []int
}

var kernelPool = sync.Pool{New: func() any { return new(kernelState) }}

// asgBufPool recycles auxiliary schedules (Duplex's second candidate).
var asgBufPool = sync.Pool{New: func() any { return new([]Assignment) }}

// grow returns s with length n, reallocating only when capacity is short.
// Contents are unspecified; callers initialise what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fill populates the flat decision-ECC table and the availability working
// copy for a T-task, M-machine batch.  When the instance provides rows
// and the policy's decision ESC has a closed form, each row is evaluated
// inline; the expressions are, operation for operation, the ones
// decisionECC computes through the policy's func value (see ESCForm), so
// both paths fill bit-identical tables.
func (ks *kernelState) fill(c Costs, p Policy, reqs []int, avail []float64) error {
	nt, nm := len(reqs), len(avail)
	ks.table = grow(ks.table, nt*nm)
	ks.avail = grow(ks.avail, nm)
	copy(ks.avail, avail)
	form, w := p.DecisionForm()
	if rc, ok := c.(RowCosts); ok && form != ESCOpaque {
		idx := rc.MachineIndex()
		if len(idx) != nm {
			return fmt.Errorf("sched: machine index has %d entries for %d machines", len(idx), nm)
		}
		top := int32(-1) // largest index any machine maps to
		for m, s := range idx {
			if s < 0 {
				return fmt.Errorf("sched: machine %d maps to trust-cost index %d", m, s)
			}
			top = max(top, s)
		}
		for i, r := range reqs {
			eec, tcs := rc.CostRows(r)
			if len(eec) != nm || len(tcs) <= int(top) {
				return fmt.Errorf("sched: request %d has cost rows of %d/%d entries for %d machines over %d indices", r, len(eec), len(tcs), nm, top+1)
			}
			ks.fillRow(ks.table[i*nm:(i+1)*nm], form, w, eec, tcs, idx)
		}
		return nil
	}
	for i, r := range reqs {
		row := ks.table[i*nm : (i+1)*nm]
		for m := range row {
			eec := c.EEC(r, m)
			tc, err := c.TrustCost(r, m)
			if err != nil {
				return err
			}
			row[m] = eec + p.DecisionESC(eec, tc)
		}
	}
	return nil
}

// fillRow evaluates one request's decision ECCs from its cost rows.  The
// per-index factor float64(tc)*w is hoisted out of the machine loop; the
// per-cell expression keeps decisionECC's parenthesization.
func (ks *kernelState) fillRow(row []float64, form ESCForm, w float64, eec []float64, tcs []int, idx []int32) {
	row, idx = row[:len(eec)], idx[:len(eec)]
	switch form {
	case ESCLinear:
		ks.factor = grow(ks.factor, len(tcs))
		f := ks.factor
		for s, tc := range tcs {
			f[s] = float64(tc) * w
		}
		for m, e := range eec {
			row[m] = e + e*f[idx[m]]/100
		}
	case ESCFlat:
		for m, e := range eec {
			row[m] = e + e*w/100
		}
	default: // ESCZero: eec + 0 is the identity because EEC >= 0
		copy(row, eec)
	}
}

// recomputePair rescans task position i's row against the current
// availability, caching the first-minimum (best) and second-smallest
// completion exactly as the reference scan does: ascending machine order,
// strict-< replacement.
func (ks *kernelState) recomputePair(i, nm int) {
	row := ks.table[i*nm : (i+1)*nm]
	a := ks.avail
	bm, sm := -1, -1
	bd, sd := math.Inf(1), math.Inf(1)
	for m, t := range row {
		done := a[m] + t
		switch {
		case done < bd:
			sd, sm = bd, bm
			bd, bm = done, m
		case done < sd:
			sd, sm = done, m
		}
	}
	ks.bestM[i], ks.bestD[i] = bm, bd
	ks.secondM[i], ks.secondD[i] = sm, sd
}

// minMaxMinKernel is the incremental Min-min (pickMax=false) / Max-min
// (pickMax=true) kernel.  It emits the same assignment sequence as
// referenceMinMaxMin.
func minMaxMinKernel(c Costs, p Policy, reqs []int, avail []float64, pickMax bool, dst []Assignment) ([]Assignment, error) {
	if err := validateBatch(c, p, reqs, avail); err != nil {
		return nil, err
	}
	nt, nm := len(reqs), len(avail)
	out := dst[:0]
	if nt == 0 {
		return out, nil
	}
	ks := kernelPool.Get().(*kernelState)
	defer kernelPool.Put(ks)
	ks.bestM = grow(ks.bestM, nt)
	ks.bestD = grow(ks.bestD, nt)
	ks.secondM = grow(ks.secondM, nt)
	ks.secondD = grow(ks.secondD, nt)
	ks.remaining = grow(ks.remaining, nt)
	if err := ks.fill(c, p, reqs, avail); err != nil {
		return nil, err
	}
	for i := 0; i < nt; i++ {
		ks.remaining[i] = i
		ks.recomputePair(i, nm)
	}
	rem := ks.remaining
	n := nt
	dirty := -1 // machine whose availability changed last commitment
	for n > 0 {
		chosenPos, chosenI, chosenM := -1, -1, -1
		chosenDone := math.Inf(1)
		if pickMax {
			chosenDone = math.Inf(-1)
		}
		for pos := 0; pos < n; pos++ {
			i := rem[pos]
			if ks.bestM[i] == dirty {
				ks.recomputePair(i, nm)
			}
			bd := ks.bestD[i]
			better := bd < chosenDone
			if pickMax {
				better = bd > chosenDone
			}
			if better || (bd == chosenDone && i < chosenI) {
				chosenDone, chosenI, chosenPos, chosenM = bd, i, pos, ks.bestM[i]
			}
		}
		if chosenM < 0 {
			return nil, fmt.Errorf("sched: no feasible (task, machine) pair in batch")
		}
		out = append(out, Assignment{
			Req:                reqs[chosenI],
			Machine:            chosenM,
			DecisionCompletion: chosenDone,
		})
		ks.avail[chosenM] = chosenDone
		dirty = chosenM
		n--
		rem[chosenPos] = rem[n] // swap-delete; order restored via tie rule
	}
	return out, nil
}

// sufferageKernel is the incremental Sufferage kernel; it emits the same
// assignment sequence as referenceSufferage.
func sufferageKernel(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	if err := validateBatch(c, p, reqs, avail); err != nil {
		return nil, err
	}
	nt, nm := len(reqs), len(avail)
	out := dst[:0]
	if nt == 0 {
		return out, nil
	}
	ks := kernelPool.Get().(*kernelState)
	defer kernelPool.Put(ks)
	ks.bestM = grow(ks.bestM, nt)
	ks.bestD = grow(ks.bestD, nt)
	ks.secondM = grow(ks.secondM, nt)
	ks.secondD = grow(ks.secondD, nt)
	ks.remaining = grow(ks.remaining, nt)
	ks.cachedAt = grow(ks.cachedAt, nt)
	ks.assigned = grow(ks.assigned, nt)
	ks.holder = grow(ks.holder, nm)
	ks.sufferOf = grow(ks.sufferOf, nm)
	ks.doneOf = grow(ks.doneOf, nm)
	ks.changedAt = grow(ks.changedAt, nm)
	if err := ks.fill(c, p, reqs, avail); err != nil {
		return nil, err
	}
	for i := 0; i < nt; i++ {
		ks.remaining[i] = i
		ks.recomputePair(i, nm)
		ks.cachedAt[i] = 0
		ks.assigned[i] = false
	}
	for m := 0; m < nm; m++ {
		ks.changedAt[m] = -1
	}
	rem := ks.remaining
	n := nt
	for sweep := 0; n > 0; sweep++ {
		for m := 0; m < nm; m++ {
			ks.holder[m] = -1
		}
		claimed := 0
		// The reference sweeps unassigned tasks in ascending request
		// order; rem is compacted stably below so the order matches.
		for pos := 0; pos < n; pos++ {
			i := rem[pos]
			bm, sm := ks.bestM[i], ks.secondM[i]
			if bm < 0 {
				return nil, fmt.Errorf("sched: no feasible machine for batch task %d", reqs[i])
			}
			if ks.changedAt[bm] >= ks.cachedAt[i] || (sm >= 0 && ks.changedAt[sm] >= ks.cachedAt[i]) {
				ks.recomputePair(i, nm)
				ks.cachedAt[i] = sweep
				bm = ks.bestM[i]
				if bm < 0 {
					return nil, fmt.Errorf("sched: no feasible machine for batch task %d", reqs[i])
				}
			}
			bd, sd := ks.bestD[i], ks.secondD[i]
			suffer := sd - bd
			if math.IsInf(sd, 1) {
				// Single eligible machine: sufferage is undefined; treat
				// as zero so first-come wins.
				suffer = 0
			}
			if ks.holder[bm] == -1 {
				ks.holder[bm] = i
				ks.sufferOf[bm] = suffer
				ks.doneOf[bm] = bd
				claimed++
			} else if suffer > ks.sufferOf[bm] {
				// Evict the smaller sufferer; it waits for the next
				// iteration.
				ks.holder[bm] = i
				ks.sufferOf[bm] = suffer
				ks.doneOf[bm] = bd
			}
		}
		if claimed == 0 {
			return nil, fmt.Errorf("sched: Sufferage made no progress with %d tasks left", n)
		}
		for m := 0; m < nm; m++ {
			i := ks.holder[m]
			if i == -1 {
				continue
			}
			ks.assigned[i] = true
			out = append(out, Assignment{
				Req:                reqs[i],
				Machine:            m,
				DecisionCompletion: ks.doneOf[m],
			})
			ks.avail[m] = ks.doneOf[m]
			ks.changedAt[m] = sweep
		}
		k := 0
		for pos := 0; pos < n; pos++ {
			if i := rem[pos]; !ks.assigned[i] {
				rem[k] = i
				k++
			}
		}
		n = k
	}
	return out, nil
}
