package sched

import (
	"fmt"
	"math"
	"testing"

	"gridtrust/internal/rng"
)

// The vector decision kernels against the portable bodies, each called
// directly: the same machine and the same bits from ScanMCT's scan, the
// same row and pair from a fill, the same pair from a rescan.  The
// dispatch (ScanMCT, kernelState.fillRow) is checked against the
// portable bodies too, on rows the vector kernels cannot take.

// decisionRow is one input to the three kernels: per-machine EEC, slot
// and free time (the scan's; the fill and the pair read it as the
// availability), the per-slot factors and the scan time.
type decisionRow struct {
	name   string
	eec    []float64
	idx    []int32
	ft     []float64
	factor []float64
	now    float64
}

// sameBits reports whether two floats are the same value: equal bits, or
// both NaN (a NaN's payload is not specified; no validated input makes
// one, and a NaN completion is never picked).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func samePair(a, b pair) bool {
	return a.bestM == b.bestM && a.secondM == b.secondM &&
		math.Float64bits(a.bestD) == math.Float64bits(b.bestD) &&
		math.Float64bits(a.secondD) == math.Float64bits(b.secondD)
}

// checkDecision compares the vector kernels with the portable bodies on
// one row, under the zero form and the linear form over its factors.
// Rows over more slots than the vector table holds are checked through
// the dispatch alone, which must run them portably.
func checkDecision(t *testing.T, row decisionRow) {
	t.Helper()
	n := len(row.eec)
	vector := hasAVX2 && len(row.factor) <= vectorSlots
	for _, factor := range [][]float64{nil, row.factor} {
		form := "zero"
		if factor != nil {
			form = fmt.Sprintf("linear over %d slots", len(factor))
		}
		wm, wv := scanPortable(row.eec, factor, row.idx, row.ft, row.now, 0, -1, math.Inf(1))
		gm, gv := ScanMCT(row.eec, factor, row.idx, row.ft, row.now)
		if vector {
			gm, gv = scanVector(row.eec, factor, row.idx, row.ft, row.now)
		}
		if gm != wm || !sameBits(gv, wv) {
			t.Fatalf("%s, %d machines, %s: scan picked (%d, %#x), portable (%d, %#x)",
				row.name, n, form, gm, math.Float64bits(gv), wm, math.Float64bits(wv))
		}

		want, got := make([]float64, n), make([]float64, n)
		wp := fillPortable(want, row.eec, factor, row.idx, row.ft, 0, noPair)
		var gp pair
		if vector {
			gp = fillVector(got, row.eec, factor, row.idx, row.ft)
		} else {
			// Through the dispatch, which must run the row portably: an
			// ESCFlat decision, whose every factor is its weight.
			esc, tcs := ESC{Form: ESCZero}, []int{}
			if factor != nil {
				esc, tcs = ESC{ESCFlat, factor[0]}, make([]int, len(factor))
				factor = esc.Factors(tcs, nil)
				wp = fillPortable(want, row.eec, factor, row.idx, row.ft, 0, noPair)
			}
			ks := kernelState{avail: row.ft}
			gp = ks.fillRow(got, esc, costRow{row.eec, tcs, row.idx})
		}
		for m := range want {
			if !sameBits(got[m], want[m]) {
				t.Fatalf("%s, %d machines, %s: fill wrote %#x at %d, portable %#x",
					row.name, n, form, math.Float64bits(got[m]), m, math.Float64bits(want[m]))
			}
		}
		if !samePair(gp, wp) {
			t.Fatalf("%s, %d machines, %s: fill's pair %+v, portable %+v", row.name, n, form, gp, wp)
		}

		wp = pairPortable(want, row.ft, 0, noPair)
		gp = wp
		if hasAVX2 {
			gp = pairVector(want, row.ft)
		}
		if !samePair(gp, wp) {
			t.Fatalf("%s, %d machines, %s: rescan's pair %+v, portable %+v", row.name, n, form, gp, wp)
		}
	}
}

// decisionLengths are the row lengths the kernels are checked at: empty,
// shorter than a vector, around one and two blocks, and long with a tail.
var decisionLengths = []int{0, 1, 3, 7, 8, 15, 16, 17, 31, 33, 1027}

// decisionSlots are the slot counts: one to four take the vector
// kernels, five and eight the portable bodies.
var decisionSlots = []int{1, 2, 3, 4, 5, 8}

// tieRow builds a row of n machines over slots slots, every machine
// completing at ft + (e + e*f/100) with the same inputs except where set.
func tieRow(name string, n, slots int, e, ft, now float64) decisionRow {
	row := decisionRow{name: name, now: now, factor: make([]float64, slots)}
	for s := range row.factor {
		row.factor[s] = 15
	}
	for m := 0; m < n; m++ {
		row.eec = append(row.eec, e)
		row.idx = append(row.idx, int32(m%slots))
		row.ft = append(row.ft, ft)
	}
	return row
}

// TestDecisionKernelsMatchPortable checks the vector kernels against the
// portable bodies on every row length and slot count above, on the edge
// cases of the clamp, the tie-breaks and the lane merge.
func TestDecisionKernelsMatchPortable(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: only the dispatch is checked against the portable bodies")
	}
	negZero := math.Copysign(0, -1)
	inf := Masked()
	for _, n := range decisionLengths {
		for _, slots := range decisionSlots {
			for _, row := range []decisionRow{
				tieRow("every machine ties, idle", n, slots, 10, 0, 5),
				tieRow("every machine ties, busy", n, slots, 10, 50, 5),
				tieRow("free time equals now", n, slots, 10, 5, 5),
				tieRow("idle at negative zero", n, slots, 3, 0, negZero),
				tieRow("negative-zero EEC at zero", n, slots, negZero, 0, 0),
				tieRow("negative-zero EEC at negative zero", n, slots, negZero, 0, negZero),
				tieRow("every machine masked", n, slots, 3, inf, 0),
				tieRow("every machine masked, zero EEC", n, slots, 0, inf, 0),
			} {
				checkDecision(t, row)
			}
		}
	}

	// Two machines tie, at every placement the lanes can give them: the
	// same lane in different blocks, different lanes in one block, and the
	// tail.  They tie for the minimum, and then, beside a best elsewhere,
	// for the runner-up.  The lower index must win each tie, which the
	// portable bodies are checked to do as well.
	for _, n := range []int{8, 17, 33} {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				row := tieRow("tie for the minimum", n, 4, 10, 100, 0)
				row.ft[i], row.ft[j] = 1, 1
				checkDecision(t, row)
				if m, _ := scanPortable(row.eec, row.factor, row.idx, row.ft, 0, 0, -1, inf); m != i {
					t.Fatalf("portable scan picked %d of tied %d and %d", m, i, j)
				}
				if pr := pairPortable(row.eec, row.ft, 0, noPair); pr.bestM != int32(i) || pr.secondM != int32(j) {
					t.Fatalf("portable pair (%d, %d) for tied %d and %d", pr.bestM, pr.secondM, i, j)
				}
				b := (i + j + 1) % n
				if b == i || b == j {
					continue
				}
				row.name = "tie for the runner-up"
				row.ft[b] = 0.5
				checkDecision(t, row)
				if pr := pairPortable(row.eec, row.ft, 0, noPair); pr.bestM != int32(b) || pr.secondM != int32(i) {
					t.Fatalf("portable pair (%d, %d) for best %d, tied %d and %d", pr.bestM, pr.secondM, b, i, j)
				}
			}
		}
	}

	// Random rows in the run loops' shape, with the edge values mixed in:
	// a fifth of the free times exactly now, some +0, a tenth masked, every
	// tenth row entirely masked, EECs of −0, and completions drawn from
	// few values so lanes tie often.
	src := rng.New(38)
	for trial := 0; trial < 2000; trial++ {
		n := decisionLengths[trial%len(decisionLengths)]
		slots := decisionSlots[src.Intn(len(decisionSlots))]
		row := decisionRow{name: "random", now: float64(src.Intn(8)), factor: make([]float64, slots)}
		if src.Bool(0.1) {
			row.now = negZero
		}
		for s := range row.factor {
			row.factor[s] = float64(src.Intn(7)) * DefaultTCWeight
		}
		for m := 0; m < n; m++ {
			ft := float64(src.Intn(16))
			switch {
			case trial%10 == 9 || src.Bool(0.1):
				ft = inf
			case src.Bool(0.2):
				ft = row.now + 0
			}
			e := float64(src.Intn(8) * 20)
			if src.Bool(0.05) {
				e = negZero
			}
			row.eec = append(row.eec, e)
			row.idx = append(row.idx, int32(src.Intn(slots)))
			row.ft = append(row.ft, ft)
		}
		checkDecision(t, row)
	}
}

// FuzzDecisionKernels compares the vector kernels with the portable
// bodies on fuzzed rows.  Each machine takes three bytes: its free time
// (a multiple of a quarter, now itself when the byte is a multiple of 8,
// masked at 0xff), its EEC (negative zero at 0xff) and its slot.  Free
// times and now are brought inside the scan's precondition; the weight
// is not.
func FuzzDecisionKernels(f *testing.F) {
	f.Add([]byte{0, 10, 0, 8, 10, 1, 16, 10, 2, 3, 10, 3, 5, 9, 0}, 2.0, 15.0, uint8(4))
	f.Add([]byte{3, 1, 0, 3, 1, 1, 3, 1, 0, 3, 1, 1, 3, 1, 0, 3, 1, 1, 3, 1, 0}, 0.0, 50.0, uint8(2))
	f.Add([]byte{1, 255, 0, 0, 0, 1, 1, 255, 0, 0, 0, 1}, math.Copysign(0, -1), 0.0, uint8(1))
	f.Add([]byte{}, 1.0, 15.0, uint8(3))
	f.Add([]byte{255, 10, 0, 255, 3, 1, 255, 7, 2, 255, 7, 2, 255, 1, 1}, 5.0, 15.0, uint8(3))
	f.Add([]byte{9, 10, 0, 9, 3, 1, 9, 7, 2, 9, 7, 4, 9, 3, 4, 9, 3, 7}, 1.0, 30.0, uint8(8))
	f.Fuzz(func(t *testing.T, data []byte, now, w float64, slots uint8) {
		if math.IsNaN(now) {
			return
		}
		if now < 0 {
			now = -now
		}
		ns := 1 + int(slots)%8
		row := decisionRow{name: "fuzz", now: now, factor: make([]float64, ns)}
		for s := range row.factor {
			row.factor[s] = float64(s) * w
		}
		for m := 0; m+3 <= len(data); m += 3 {
			fb, eb, sb := data[m], data[m+1], data[m+2]
			ft := float64(fb) / 4
			switch {
			case fb == 0xff:
				ft = Masked()
			case fb%8 == 0:
				ft = now + 0
			}
			e := float64(eb) / 2
			if eb == 0xff {
				e = math.Copysign(0, -1)
			}
			row.eec = append(row.eec, e)
			row.idx = append(row.idx, int32(sb)%int32(ns))
			row.ft = append(row.ft, ft)
		}
		checkDecision(t, row)
	})
}
