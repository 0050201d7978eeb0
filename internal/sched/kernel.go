package sched

import (
	"fmt"
	"math"
	"sync"
)

// This file holds the optimized batch-mapping kernels behind MinMin,
// MaxMin, Sufferage and Duplex.  The naive O(T²·M) implementations they
// replace live in reference_test.go; the two are kept assignment-for-
// assignment identical (kernel_equiv_test.go, FuzzKernelEquivalence).
//
// fill writes each task's decision row and, in the same pass, caches its
// pair: the best (first-minimum) completion and the runner-up, the least
// completion on any other machine, ties to the lower index.  A
// commitment raises one machine's availability; none ever falls.
//
// Min-min and Max-min keep, per machine, an intrusive list of the tasks
// whose best is that machine, and a tournament tree over task positions
// whose root is the next pick: the least best completion (greatest for
// Max-min), ties to the lower position, which the tree keeps by letting
// its left child win ties.  A commitment on machine d re-decides only
// the tasks on d's list and replays their leaves: a batch costs O(T·M)
// to fill plus O(log T) per re-decision and O(M) per rescan.  Proof that
// a re-decision is exact: no availability falls and rounding is
// monotone, so a task off d's list keeps its best (every other machine
// stayed above it, or equal and after it), and for a task on it every
// machine but d and its runner-up s stayed ≥ s's cached completion, and
// above it before s.  So if s's completion rs recomputes to the cached
// bits, the new best is the first-index minimum of (nd, d) and (rs, s),
// and s stays runner-up when d wins; otherwise, or when the runner-up is
// unknown (s took over last time), the row is rescanned.  Bits, not ==,
// because −0 and +0 are == and the completion reported must be the one
// a rescan reads.
//
// Sufferage commits several machines per sweep and needs the runner-up's
// value, so it stamps machines with the sweep they last changed in and
// rescans a task whose best or runner-up machine changed since its pair
// was cached; no other machine can lower either value.

// kernelState is the reusable scratch of the batch kernels.  States are
// pooled, so steady-state mapping allocates nothing beyond the returned
// schedule; every slice is length-managed by grow and fully (re)initialised
// by the kernel that checks the state out, so stale contents are harmless.
type kernelState struct {
	table  []float64 // decision ECCs, len T*M, row stride M
	avail  []float64 // working copy of the availability vector
	factor []float64 // per-slot ESC factors of the row being filled
	pairs  []pair    // per task position, cached against avail

	// Min-min and Max-min: the tasks whose best is machine m are head[m],
	// next[head[m]], … up to -1; tree[1] is the next pick, tree[P+i]
	// task i's leaf (P a power of two ≥ T) and -1 an empty slot.
	head, next, tree []int32

	// Sufferage: the tasks not yet committed, in position order, the
	// sweep scratch, and the stamps: a pair is stale iff its best or
	// runner-up machine changed at or after the sweep it was cached in.
	remaining, holder   []int
	sufferOf, doneOf    []float64
	assigned            []bool
	changedAt, cachedAt []int
}

// pair is a task's cached best and runner-up completion: machine -1 (at
// +Inf) is none, and a runner-up of -1 beside a best may be unknown.
type pair struct {
	bestD, secondD float64
	bestM, secondM int32
}

// see folds machine m's completion into the pair, as the reference scans
// do: ascending machine order, strict-< replacement.
func (pr *pair) see(m int, done float64) {
	switch {
	case done < pr.bestD:
		pr.secondD, pr.secondM = pr.bestD, pr.bestM
		pr.bestD, pr.bestM = done, int32(m)
	case done < pr.secondD:
		pr.secondD, pr.secondM = done, int32(m)
	}
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
// the i-th request of reqs on machine m), the availability working copy
// and every task's pair for a T-task, M-machine batch, reading each
// request's rows once.
func (ks *kernelState) fill(in instance, p Policy, reqs []int, avail []float64) error {
	nt, nm := len(reqs), len(avail)
	ks.table = grow(ks.table, nt*nm)
	ks.avail = grow(ks.avail, nm)
	ks.pairs = grow(ks.pairs, nt)
	copy(ks.avail, avail)
	for i, r := range reqs {
		row, err := in.row(r)
		if err != nil {
			return err
		}
		ks.pairs[i] = ks.fillRow(ks.table[i*nm:(i+1)*nm], p.decision, row)
	}
	return nil
}

// fillRow evaluates one request's decision ECCs from its cost rows and
// returns their pair against the availability.  The per-slot factors are
// hoisted out of the machine loop (ESC.Factors); the per-cell expression
// keeps ESC.Cost's parenthesization, so every entry is, operation for
// operation, row.cost(dec, m) (referenceTable in reference_test.go).
func (ks *kernelState) fillRow(dst []float64, dec ESC, row costRow) pair {
	f := dec.Factors(row.tcs, ks.factor)
	if f != nil {
		ks.factor = f
	}
	if hasAVX2 && len(f) <= vectorSlots {
		return fillVector(dst, row.eec, f, row.idx, ks.avail)
	}
	return fillPortable(dst, row.eec, f, row.idx, ks.avail, 0, noPair)
}

// rescan recomputes task position i's pair from its row against the
// current availability.
func (ks *kernelState) rescan(i int) {
	nm := len(ks.avail)
	row := ks.table[i*nm : (i+1)*nm]
	if hasAVX2 {
		ks.pairs[i] = pairVector(row, ks.avail)
	} else {
		ks.pairs[i] = pairPortable(row, ks.avail, 0, noPair)
	}
}

// redecide updates the pair of task position i, whose best machine d
// just rose, by the rule in this file's header.
func (ks *kernelState) redecide(i int, d int32) {
	nm := len(ks.avail)
	row, pr := ks.table[i*nm:(i+1)*nm], &ks.pairs[i]
	s, rs := pr.secondM, pr.secondD
	if s < 0 || math.Float64bits(ks.avail[s]+row[s]) != math.Float64bits(rs) {
		ks.rescan(i)
		return
	}
	if nd := ks.avail[d] + row[d]; nd < rs || nd == rs && d < s {
		pr.bestD = nd
	} else {
		*pr = pair{rs, math.Inf(1), s, -1}
	}
}

// enlist puts task position i on its best machine's list, if it has one.
func (ks *kernelState) enlist(i int32) {
	if b := ks.pairs[i].bestM; b >= 0 {
		ks.next[i], ks.head[b] = ks.head[b], i
	}
}

// play returns the winner of two tree slots: the task picked first, the
// left one (lower positions) on a tie.
func (ks *kernelState) play(l, r int32, pickMax bool) int32 {
	if l < 0 || r < 0 {
		return max(l, r)
	}
	a, b := ks.pairs[l].bestD, ks.pairs[r].bestD
	if pickMax && b > a || !pickMax && b < a {
		return r
	}
	return l
}

// replay sets task position i's leaf to v (i, or -1 once committed) and
// replays the matches above it, up to one another task wins again.
func (ks *kernelState) replay(i int, v int32, pickMax bool) {
	k := len(ks.tree)/2 + i
	ks.tree[k] = v
	for k /= 2; k > 0; k /= 2 {
		w := ks.play(ks.tree[2*k], ks.tree[2*k+1], pickMax)
		if w == ks.tree[k] && w != int32(i) {
			return
		}
		ks.tree[k] = w
	}
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
	if err := ks.fill(in, p, reqs, avail); err != nil {
		return nil, err
	}
	leaves := 1
	for leaves < nt {
		leaves *= 2
	}
	ks.head, ks.next, ks.tree = grow(ks.head, nm), grow(ks.next, nt), grow(ks.tree, 2*leaves)
	for _, s := range [][]int32{ks.head, ks.tree} {
		for k := range s {
			s[k] = -1
		}
	}
	for k := range int32(nt) {
		ks.enlist(k)
		ks.replay(int(k), k, pickMax)
	}
	for range nt {
		i := ks.tree[1]
		d, done := ks.pairs[i].bestM, ks.pairs[i].bestD
		// The reference's strict scan from −Inf never picks −Inf either.
		if d < 0 || pickMax && math.IsInf(done, -1) {
			return nil, fmt.Errorf("sched: no feasible (task, machine) pair in batch")
		}
		out = append(out, Assignment{Req: reqs[i], Machine: int(d), DecisionCompletion: done})
		ks.avail[d] = done
		ks.replay(int(i), -1, pickMax)
		j := ks.head[d]
		ks.head[d] = -1
		for j >= 0 {
			k := j
			j = ks.next[k]
			if k == i {
				continue
			}
			ks.redecide(int(k), d)
			ks.enlist(k)
			ks.replay(int(k), k, pickMax)
		}
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
			bm, sm := ks.pairs[i].bestM, ks.pairs[i].secondM
			if bm < 0 {
				return nil, fmt.Errorf("sched: no feasible machine for batch task %d", reqs[i])
			}
			if ks.changedAt[bm] >= ks.cachedAt[i] || (sm >= 0 && ks.changedAt[sm] >= ks.cachedAt[i]) {
				ks.rescan(i)
				ks.cachedAt[i] = sweep
				bm = ks.pairs[i].bestM
				if bm < 0 {
					return nil, fmt.Errorf("sched: no feasible machine for batch task %d", reqs[i])
				}
			}
			bd, sd := ks.pairs[i].bestD, ks.pairs[i].secondD
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
