package sim

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
)

// referenceScanRange is fusedScanRange as it was when its clamp was a
// compare-and-branch (`if a < now { a = now }`), kept verbatim as the
// oracle: the production scan must return the same machine and the same
// value, bit for bit, on every input that meets its precondition.
func referenceScanRange(dec fusedESC, eec, tcw []float64, rdOf []int32, ft []float64, now float64, lo, hi int) (int, float64) {
	best := -1
	bestVal := math.Inf(1)
	if lo >= hi {
		return best, bestVal
	}
	eec, rdOf, ft = eec[lo:hi:hi], rdOf[lo:hi:hi], ft[lo:hi:hi]
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
var scanForms = []fusedESC{
	{form: sched.ESCLinear, w: sched.DefaultTCWeight},
	{form: sched.ESCFlat, w: sched.DefaultFlatOverheadPct},
	{form: sched.ESCZero},
}

// checkScan compares fusedScanRange with the reference on one row under
// every form: the machine, and the value by its bits.
func checkScan(t *testing.T, row scanRow, forms []fusedESC) {
	t.Helper()
	for _, dec := range forms {
		gm, gv := fusedScanRange(dec, row.eec, row.tcw, row.rdOf, row.ft, row.now, row.lo, row.hi)
		wm, wv := referenceScanRange(dec, row.eec, row.tcw, row.rdOf, row.ft, row.now, row.lo, row.hi)
		if gm != wm || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s, form %d: scan picked (%d, %v = %#x), reference (%d, %v = %#x)",
				row.name, dec.form, gm, gv, math.Float64bits(gv), wm, wv, math.Float64bits(wv))
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
// every machine idle or busy, one machine, empty ranges, signed zeros and
// zero EEC.
func TestFusedScanMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
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
	}
	for _, row := range rows {
		checkScan(t, row, scanForms)
	}

	// Random rows in the shape the run loop produces: free times that
	// only grow from +0, a fifth of them exactly now.
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
// of a quarter, or now itself when the byte is a multiple of 8), its EEC
// (arbitrary, negative zero at 0xff) and its RD slot.  Free times and now
// are brought inside the scan's precondition (≥ +0 and not NaN for free
// times, ≥ −0 and not NaN for now); EEC and the weight are not.
func FuzzFusedScan(f *testing.F) {
	f.Add([]byte{0, 10, 0, 8, 10, 1, 16, 10, 2}, 2.0, 15.0, uint8(0), uint8(255))
	f.Add([]byte{3, 1, 0, 3, 1, 1, 3, 1, 0}, 0.0, 50.0, uint8(0), uint8(3))
	f.Add([]byte{1, 255, 0, 0, 0, 1}, math.Copysign(0, -1), 0.0, uint8(1), uint8(2))
	f.Add([]byte{}, 1.0, 15.0, uint8(0), uint8(0))
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
			if fb%8 == 0 {
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
		checkScan(t, row, []fusedESC{{form: sched.ESCLinear, w: w}, {form: sched.ESCFlat, w: w}, {form: sched.ESCZero}})
	})
}
