package sched

import "math"

// Decision kernels
//
// Every heuristic prices machine m for a request by one expression: the
// machine's availability plus its decision ECC, eec[m] + ESC.  Three
// loops evaluate it for a whole row, and most of a simulation is spent in
// them: ScanMCT (the simulator's MCT pick), kernelState.fillRow (a batch
// row and its pair) and kernelState.rescan (a row's pair against a new
// availability).
//
// Each loop has two forms.  The zero form's ECC is eec + 0 (ESCZero, the
// decision view of the unaware and blind policies).  The linear form's is
// eec + eec*f[s]/100 for the machine's slot s, over per-slot factors
// built by ESC.Factors: float64(tc)*Weight under ESCLinear and Weight
// under ESCFlat, so a flat ESC is the linear loop with a uniform factor,
// operation for operation ESC.Cost.
//
// Each loop has a portable Go body and, on amd64 CPUs with AVX2 and
// OS-enabled YMM state (decide_amd64.s), a vector kernel that prices four
// machines per instruction over the longest prefix of a row that is a
// multiple of four; the portable body finishes the row.  Dispatch reads
// only the CPU and, for the linear form, the slot count: the vector
// kernels look a factor up with VPERMD in a four-entry table, so rows
// over more slots run portably.  The two bodies return the same machine
// and the same bits on every input (DESIGN.md §13): every lane does the
// scalar operations in the scalar order with no FMA, keeps its own
// minimum (and runner-up) by strict <, and the lanes are merged in
// (value, index) order, so the first index wins as it does in the scalar
// scan.

// Factors returns the per-slot factors of e for trust costs tcs, in
// dst's storage when it is long enough, or nil under ESCZero: the
// decision ECC of a machine in slot s is eec + eec*f[s]/100, ESC.Cost's
// expression with its innermost product hoisted out of the machine loop.
func (e ESC) Factors(tcs []int, dst []float64) []float64 {
	switch e.Form {
	case ESCLinear:
		dst = grow(dst, len(tcs))
		for s, tc := range tcs {
			dst[s] = float64(tc) * e.Weight
		}
		return dst
	case ESCFlat:
		dst = grow(dst, len(tcs))
		for s := range dst {
			dst[s] = e.Weight
		}
		return dst
	}
	return nil
}

// vectorSlots is the most slots a linear row may have for the vector
// kernels: their factor table is one YMM register.
const vectorSlots = 4

// ScanMCT returns the first machine m attaining the least decision
// completion max(ft[m], now) + ECC(m) and that least value; (-1, +Inf)
// when ft is empty or every machine in it is masked.  ECC(m) is
// eec[m] + eec[m]*factor[rdOf[m]]/100 over factors from ESC.Factors, or
// eec[m] when factor is nil (rdOf is then not read).  Each expression
// keeps sched's parenthesisation, availability + (eec + esc), so every
// sum rounds as MCT.AssignOne's does.
//
// Precondition: every ft[m] is ≥ +0 and not NaN (a masked +Inf never
// wins), now is ≥ −0 and not NaN (it is read as now + 0), and every
// rdOf[m] indexes factor.  Under it the clamp max(ft[m], now) is the
// float max bit for bit, which both bodies take without a branch (under
// load a compare-and-branch there is mispredicted from machine to
// machine; DESIGN.md §13): the portable one on the IEEE bit patterns,
// whose unsigned order is float order for such floats, the vector one
// with VMAXPD.  internal/sim's TestFusedScanMatchesReference and
// FuzzFusedScan hold the scan to its branching reference.
func ScanMCT(eec, factor []float64, rdOf []int32, ft []float64, now float64) (int, float64) {
	if hasAVX2 && len(factor) <= vectorSlots {
		return scanVector(eec, factor, rdOf, ft, now)
	}
	return scanPortable(eec, factor, rdOf, ft, now, 0, -1, math.Inf(1))
}

// scanVector is ScanMCT on the vector kernels.
func scanVector(eec, factor []float64, rdOf []int32, ft []float64, now float64) (int, float64) {
	n := len(ft)
	k := n &^ 3
	if k == 0 {
		return scanPortable(eec, factor, rdOf, ft, now, 0, -1, math.Inf(1))
	}
	eec = eec[:n]
	var best int
	var val float64
	if factor == nil {
		best, val = scanZeroAVX2(&eec[0], &ft[0], k, now+0)
	} else {
		rdOf = rdOf[:n]
		var tab [vectorSlots]float64
		copy(tab[:], factor)
		best, val = scanLinearAVX2(&eec[0], &rdOf[0], &ft[0], k, &tab, now+0)
	}
	if k == n { // a call that prices no machine costs a short row 10 ns
		return best, val
	}
	return scanPortable(eec, factor, rdOf, ft, now, k, best, val)
}

// scanPortable continues ScanMCT's scan at machine k from the first k
// machines' result (best, val).
func scanPortable(eec, factor []float64, rdOf []int32, ft []float64, now float64, k, best int, val float64) (int, float64) {
	n := len(ft)
	eec, ft = eec[k:n:n], ft[k:n:n]
	nowBits := math.Float64bits(now + 0)
	if factor == nil {
		for i, e := range eec {
			a := math.Float64frombits(max(math.Float64bits(ft[i]), nowBits))
			if done := a + e; done < val {
				val, best = done, k+i
			}
		}
		return best, val
	}
	rdOf = rdOf[k:n:n]
	for i, e := range eec {
		a := math.Float64frombits(max(math.Float64bits(ft[i]), nowBits))
		if done := a + (e + e*factor[rdOf[i]]/100); done < val {
			val, best = done, k+i
		}
	}
	return best, val
}

// fillVector writes dst[m] = ECC(m) for every machine of the row (the
// zero form's is eec[m] + 0, which turns −0 into +0) and returns the
// pair of the completions avail[m] + dst[m], on the vector kernels.
func fillVector(dst, eec, factor []float64, idx []int32, avail []float64) pair {
	n := len(eec)
	k := n &^ 3
	if k == 0 {
		return fillPortable(dst, eec, factor, idx, avail, 0, noPair)
	}
	dst, avail = dst[:n], avail[:n]
	var bd, sd float64
	var bm, sm int
	if factor == nil {
		bd, sd, bm, sm = fillZeroAVX2(&dst[0], &eec[0], &avail[0], k)
	} else {
		idx = idx[:n]
		var tab [vectorSlots]float64
		copy(tab[:], factor)
		bd, sd, bm, sm = fillLinearAVX2(&dst[0], &eec[0], &idx[0], &avail[0], k, &tab)
	}
	pr := pair{bd, sd, int32(bm), int32(sm)}
	if k == n {
		return pr
	}
	return fillPortable(dst, eec, factor, idx, avail, k, pr)
}

// noPair is the pair of no machine.
var noPair = pair{math.Inf(1), math.Inf(1), -1, -1}

// fillPortable continues fillVector's row at machine k from the first k
// machines' pair pr.
func fillPortable(dst, eec, factor []float64, idx []int32, avail []float64, k int, pr pair) pair {
	n := len(eec)
	dst, avail = dst[:n:n], avail[:n:n]
	if factor == nil {
		for m := k; m < n; m++ {
			v := eec[m] + 0
			dst[m] = v
			pr.see(m, avail[m]+v)
		}
		return pr
	}
	idx = idx[:n:n]
	for m := k; m < n; m++ {
		e := eec[m]
		v := e + e*factor[idx[m]]/100
		dst[m] = v
		pr.see(m, avail[m]+v)
	}
	return pr
}

// pairVector returns the pair of the completions avail[m] + row[m] on
// the vector kernel.
func pairVector(row, avail []float64) pair {
	n := len(row)
	k := n &^ 3
	if k == 0 {
		return pairPortable(row, avail, 0, noPair)
	}
	avail = avail[:n]
	bd, sd, bm, sm := pairAVX2(&row[0], &avail[0], k)
	pr := pair{bd, sd, int32(bm), int32(sm)}
	if k == n {
		return pr
	}
	return pairPortable(row, avail, k, pr)
}

// pairPortable continues pairVector's row at machine k from the first k
// machines' pair pr.
func pairPortable(row, avail []float64, k int, pr pair) pair {
	avail = avail[:len(row)]
	for m := k; m < len(row); m++ {
		pr.see(m, avail[m]+row[m])
	}
	return pr
}
