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
// performs no heap allocation beyond the returned schedule, and none at
// all when the caller recycles the destination slice.

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

// fill populates the flat decision-ECC table (entry i*nm+m is the ECC of
// the i-th request of reqs on machine m) and the availability working copy
// for a T-task, M-machine batch, reading each request's rows once.
func (ks *kernelState) fill(in instance, p Policy, reqs []int, avail []float64) error {
	nt, nm := len(reqs), len(avail)
	ks.table = grow(ks.table, nt*nm)
	ks.avail = grow(ks.avail, nm)
	copy(ks.avail, avail)
	for i, r := range reqs {
		row, err := in.row(r)
		if err != nil {
			return err
		}
		ks.fillRow(ks.table[i*nm:(i+1)*nm], p.decision, row)
	}
	return nil
}

// fillRow evaluates one request's decision ECCs from its cost rows.  The
// per-index factor float64(tc)*w is hoisted out of the machine loop; the
// per-cell expression keeps ESC.Cost's parenthesization, so every entry is,
// operation for operation, row.cost(dec, m) (referenceTable in
// reference_test.go).
func (ks *kernelState) fillRow(dst []float64, dec ESC, row costRow) {
	eec, idx := row.eec, row.idx[:len(row.eec)]
	dst = dst[:len(eec)]
	switch dec.Form {
	case ESCLinear:
		ks.factor = grow(ks.factor, len(row.tcs))
		f := ks.factor
		for s, tc := range row.tcs {
			f[s] = float64(tc) * dec.Weight
		}
		for m, e := range eec {
			dst[m] = e + e*f[idx[m]]/100
		}
	case ESCFlat:
		for m, e := range eec {
			dst[m] = e + e*dec.Weight/100
		}
	default: // ESCZero: eec + 0 is the identity because EEC >= 0
		copy(dst, eec)
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
	in, err := validateBatch(c, p, reqs, avail)
	if err != nil {
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
	if err := ks.fill(in, p, reqs, avail); err != nil {
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
	in, err := validateBatch(c, p, reqs, avail)
	if err != nil {
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
	if err := ks.fill(in, p, reqs, avail); err != nil {
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
