package sim

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
)

// referenceScanRange is the simulator's MCT scan as it was when its clamp
// was a compare-and-branch (`if a < now { a = now }`) and it scanned a
// range [lo,hi) of the machines, kept verbatim as the oracle:
// sched.ScanMCT over that range must return the same machine and the
// same value, bit for bit, on every input that meets its precondition.
func referenceScanRange(dec sched.ESC, eec, tcw []float64, rdOf []int32, ft []float64, now float64, lo, hi int) (int, float64) {
	best := -1
	bestVal := math.Inf(1)
	if lo >= hi {
		return best, bestVal
	}
	eec, rdOf, ft = eec[lo:hi:hi], rdOf[lo:hi:hi], ft[lo:hi:hi]
	switch dec.Form {
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
			if done := a + (e + e*dec.Weight/100); done < bestVal {
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
	if best >= 0 {
		best += lo
	}
	return best, bestVal
}

// scanRow is one input to the machine scan: per-machine EEC, RD slot and
// free time, the per-slot linear factors, the scan time and the range.
type scanRow struct {
	name   string
	eec    []float64
	rdOf   []int32
	ft     []float64
	tcw    []float64
	now    float64
	lo, hi int
}

// scanForms are the three closed ESC forms the scan specialises, with
// the weights the paper's policies use.
var scanForms = []sched.ESC{
	{Form: sched.ESCLinear, Weight: sched.DefaultTCWeight},
	{Form: sched.ESCFlat, Weight: sched.DefaultFlatOverheadPct},
	{Form: sched.ESCZero},
}

// checkScan compares sched.ScanMCT over the row's range with the
// reference on one row under every form: the machine, and the value by
// its bits.  A range whose every free time is masked (+Inf, a down
// machine) must find no machine.  The scan's factors are the ones
// ESC.Factors builds: the row's per-slot products under ESCLinear, the
// weight for every slot under ESCFlat, none under ESCZero.
func checkScan(t *testing.T, row scanRow, forms []sched.ESC) {
	t.Helper()
	lo, hi := row.lo, max(row.lo, row.hi)
	allMasked := true
	for i := lo; i < hi; i++ {
		allMasked = allMasked && sched.IsMasked(row.ft[i])
	}
	for _, dec := range forms {
		var factor []float64
		switch dec.Form {
		case sched.ESCLinear:
			factor = row.tcw
		case sched.ESCFlat:
			factor = make([]float64, len(row.tcw))
			for s := range factor {
				factor[s] = dec.Weight
			}
		}
		gm, gv := sched.ScanMCT(row.eec[lo:hi], factor, row.rdOf[lo:hi], row.ft[lo:hi], row.now)
		if gm >= 0 {
			gm += lo
		}
		wm, wv := referenceScanRange(dec, row.eec, row.tcw, row.rdOf, row.ft, row.now, row.lo, row.hi)
		if gm != wm || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s, form %d: scan picked (%d, %v = %#x), reference (%d, %v = %#x)",
				row.name, dec.Form, gm, gv, math.Float64bits(gv), wm, wv, math.Float64bits(wv))
		}
		if allMasked && gm != -1 {
			t.Fatalf("%s, form %d: every machine in [%d,%d) is masked, scan picked %d", row.name, dec.Form, row.lo, row.hi, gm)
		}
	}
}

// uniformRow builds a row of n machines over slots RD slots in round-robin
// order, every EEC e and every free time ft.
func uniformRow(name string, n int, e, ft, now float64) scanRow {
	row := scanRow{name: name, now: now, hi: n, tcw: []float64{0, 15, 30, 45}}
	for m := 0; m < n; m++ {
		row.eec = append(row.eec, e)
		row.rdOf = append(row.rdOf, int32(m%len(row.tcw)))
		row.ft = append(row.ft, ft)
	}
	return row
}

// TestFusedScanMatchesReference pins the machine scan against the
// branching reference on the edge cases of its clamp and its tie-break:
// equal completion times (the first index wins), free time equal to now,
// every machine idle or busy, one machine, empty ranges, signed zeros,
// zero EEC, and masked (down) machines: a masked free time is +Inf, which
// no completion time beats, so a range of nothing else finds no machine.
func TestFusedScanMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf := sched.Masked()
	rows := []scanRow{
		uniformRow("ties, all idle", 6, 10, 0, 5),
		uniformRow("ties, all busy", 6, 10, 50, 5),
		uniformRow("free time equals now", 6, 10, 5, 5),
		uniformRow("all idle at time zero", 5, 3, 0, 0),
		uniformRow("all idle at negative zero", 5, 3, 0, negZero),
		uniformRow("all busy at negative zero", 5, 3, 40, negZero),
		uniformRow("zero EEC, idle", 4, 0, 0, 7),
		uniformRow("zero EEC, busy", 4, 0, 9, 7),
		uniformRow("zero EEC at zero", 4, 0, 0, 0),
		uniformRow("negative-zero EEC at zero", 4, negZero, 0, 0),
		uniformRow("negative-zero EEC at negative zero", 4, negZero, 0, negZero),
		uniformRow("one machine idle", 1, 12, 0, 3),
		uniformRow("one machine busy", 1, 12, 30, 3),
		uniformRow("one machine free at now", 1, 12, 3, 3),
		uniformRow("infinite free time", 3, 1, math.Inf(1), 2),
		{
			name: "mixed busy and idle, tie between a busy and an idle machine",
			eec:  []float64{9, 4, 2, 6, 4},
			rdOf: []int32{0, 1, 0, 1, 0},
			ft:   []float64{0, 6, 8, 4, 0},
			tcw:  []float64{0, 0},
			now:  4, hi: 5,
		},
		{
			name: "tie decided by the busy machine first",
			eec:  []float64{1, 3, 2},
			rdOf: []int32{0, 0, 0},
			ft:   []float64{5, 0, 4},
			tcw:  []float64{30},
			now:  3, hi: 3,
		},
		{
			name: "sub-range",
			eec:  []float64{1, 8, 3, 7, 2, 1},
			rdOf: []int32{0, 1, 2, 0, 1, 2},
			ft:   []float64{0, 2, 9, 1, 6, 0},
			tcw:  []float64{15, 45, 75},
			now:  2, lo: 1, hi: 5,
		},
		{
			name: "empty range",
			eec:  []float64{1, 2}, rdOf: []int32{0, 0}, ft: []float64{0, 0},
			tcw: []float64{0}, now: 1, lo: 1, hi: 1,
		},
		{
			name: "inverted range",
			eec:  []float64{1, 2}, rdOf: []int32{0, 0}, ft: []float64{0, 0},
			tcw: []float64{0}, now: 1, lo: 2, hi: 1,
		},
		{
			name: "no machines",
			tcw:  []float64{0}, now: 1,
		},
		uniformRow("all masked at zero", 4, 3, inf, 0),
		uniformRow("all masked, zero EEC", 3, 0, inf, 0),
		uniformRow("one machine masked", 1, 12, inf, 3),
		{
			name: "masked machines beside the best",
			eec:  []float64{1, 9, 1, 4, 1},
			rdOf: []int32{0, 1, 0, 1, 0},
			ft:   []float64{inf, 6, inf, 4, inf},
			tcw:  []float64{0, 45},
			now:  4, hi: 5,
		},
		{
			name: "only the last machine up",
			eec:  []float64{1, 1, 1, 50},
			rdOf: []int32{0, 1, 2, 0},
			ft:   []float64{inf, inf, inf, 0},
			tcw:  []float64{15, 30, 90},
			now:  2, hi: 4,
		},
		{
			name: "masked sub-range of a live row",
			eec:  []float64{1, 8, 3, 7, 2, 1},
			rdOf: []int32{0, 1, 2, 0, 1, 2},
			ft:   []float64{0, inf, inf, inf, 6, 0},
			tcw:  []float64{15, 45, 75},
			now:  2, lo: 1, hi: 4,
		},
	}
	for _, row := range rows {
		checkScan(t, row, scanForms)
	}

	// Random rows in the shape the run loops produce: free times that
	// only grow from +0, a fifth of them exactly now, a tenth masked, and
	// every tenth row entirely masked.
	src := rng.New(30)
	for trial := 0; trial < 500; trial++ {
		n := 1 + src.Intn(40)
		row := scanRow{name: "random", now: src.Uniform(0, 500), hi: n, tcw: make([]float64, 1+src.Intn(4))}
		for s := range row.tcw {
			row.tcw[s] = float64(1+src.Intn(5)) * sched.DefaultTCWeight
		}
		for m := 0; m < n; m++ {
			ft := src.Uniform(0, 1000)
			switch {
			case trial%10 == 9 || src.Bool(0.1):
				ft = inf
			case src.Bool(0.2):
				ft = row.now
			case src.Bool(0.1):
				ft = 0
			}
			row.eec = append(row.eec, src.Uniform(10, 1000))
			row.rdOf = append(row.rdOf, int32(src.Intn(len(row.tcw))))
			row.ft = append(row.ft, ft)
		}
		if src.Bool(0.3) {
			row.lo = src.Intn(n + 1)
			row.hi = row.lo + src.Intn(n-row.lo+1)
		}
		checkScan(t, row, scanForms)
	}
}

// FuzzFusedScan compares the machine scan with the branching reference on
// fuzzed rows.  Each machine takes three bytes: its free time (a multiple
// of a quarter, now itself when the byte is a multiple of 8, masked at
// 0xff), its EEC (arbitrary, negative zero at 0xff) and its RD slot.  Free
// times and now are brought inside the scan's precondition (≥ +0 and not
// NaN for free times, +Inf included; ≥ −0 and not NaN for now); EEC and
// the weight are not.
func FuzzFusedScan(f *testing.F) {
	f.Add([]byte{0, 10, 0, 8, 10, 1, 16, 10, 2}, 2.0, 15.0, uint8(0), uint8(255))
	f.Add([]byte{3, 1, 0, 3, 1, 1, 3, 1, 0}, 0.0, 50.0, uint8(0), uint8(3))
	f.Add([]byte{1, 255, 0, 0, 0, 1}, math.Copysign(0, -1), 0.0, uint8(1), uint8(2))
	f.Add([]byte{}, 1.0, 15.0, uint8(0), uint8(0))
	f.Add([]byte{255, 10, 0, 255, 3, 1, 255, 7, 2}, 5.0, 15.0, uint8(0), uint8(3))
	f.Add([]byte{255, 10, 0, 9, 3, 1, 255, 7, 2}, 1.0, 30.0, uint8(0), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, now, w float64, lo, hi uint8) {
		if math.IsNaN(now) {
			return
		}
		if now < 0 {
			now = -now
		}
		n := len(data) / 3
		row := scanRow{name: "fuzz", now: now, tcw: []float64{0, w, 2 * w, 3 * w}}
		for m := 0; m < n; m++ {
			fb, eb, rb := data[3*m], data[3*m+1], data[3*m+2]
			ft := float64(fb) / 4
			switch {
			case fb == 0xff:
				ft = sched.Masked()
			case fb%8 == 0:
				ft = now + 0 // exactly now, with a −0 now read as +0
			}
			e := float64(eb) / 2
			if eb == 0xff {
				e = math.Copysign(0, -1)
			}
			row.eec = append(row.eec, e)
			row.rdOf = append(row.rdOf, int32(rb)%int32(len(row.tcw)))
			row.ft = append(row.ft, ft)
		}
		row.lo, row.hi = min(int(lo), n), min(int(hi), n)
		checkScan(t, row, []sched.ESC{{Form: sched.ESCLinear, Weight: w}, {Form: sched.ESCFlat, Weight: w}, {Form: sched.ESCZero}})
	})
}
