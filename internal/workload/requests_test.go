package workload

import (
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
)

func TestPaperSpecShape(t *testing.T) {
	s := PaperSpec(50, Inconsistent)
	if s.Tasks != 50 || s.Machines != 5 {
		t.Fatalf("paper spec dims wrong: %+v", s)
	}
	if s.MinToAs != 1 || s.MaxToAs != 4 {
		t.Fatalf("paper spec ToA bounds wrong: %+v", s)
	}
	if s.Heterogeneity != LoLo {
		t.Fatalf("paper spec heterogeneity = %v, want LoLo", s.Heterogeneity)
	}
}

func TestNewWorkloadPaperRanges(t *testing.T) {
	src := rng.New(42)
	w, err := NewWorkload(src, PaperSpec(100, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumCDs < 1 || w.NumCDs > 4 || w.NumRDs < 1 || w.NumRDs > 4 {
		t.Fatalf("domain counts outside [1,4]: CDs=%d RDs=%d", w.NumCDs, w.NumRDs)
	}
	if len(w.Requests) != 100 {
		t.Fatalf("requests = %d", len(w.Requests))
	}
	prevArrival := 0.0
	for i, r := range w.Requests {
		if n := len(r.ToA.Activities); n < 1 || n > 4 {
			t.Fatalf("request %d has %d ToAs, want [1,4]", i, n)
		}
		if r.ClientRTL < grid.LevelA || r.ClientRTL > grid.LevelF {
			t.Fatalf("request %d client RTL %v outside [1,6]", i, r.ClientRTL)
		}
		if int(r.CD) < 0 || int(r.CD) >= w.NumCDs {
			t.Fatalf("request %d CD %d outside [0,%d)", i, r.CD, w.NumCDs)
		}
		if r.ArrivalAt < prevArrival {
			t.Fatalf("arrivals not monotone at request %d", i)
		}
		prevArrival = r.ArrivalAt
		if r.TaskIndex != i {
			t.Fatalf("request %d task index %d", i, r.TaskIndex)
		}
		// ToA activities must be distinct.
		seen := map[grid.Activity]bool{}
		for _, a := range r.ToA.Activities {
			if seen[a] {
				t.Fatalf("request %d repeats activity %v", i, a)
			}
			seen[a] = true
		}
	}
	for rd, rtl := range w.ResourceRTL {
		if rtl < grid.LevelA || rtl > grid.LevelF {
			t.Fatalf("RD %d RTL %v outside [1,6]", rd, rtl)
		}
	}
	// Every (CD, RD, activity) triple must have a table entry in [1,5].
	for cd := 0; cd < w.NumCDs; cd++ {
		for rd := 0; rd < w.NumRDs; rd++ {
			for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
				tl, ok := w.Table.Get(grid.DomainID(cd), grid.DomainID(rd), a)
				if !ok {
					t.Fatalf("missing table entry (%d,%d,%v)", cd, rd, a)
				}
				if !tl.Offerable() {
					t.Fatalf("table entry (%d,%d,%v) = %v is not offerable", cd, rd, a, tl)
				}
			}
		}
	}
}

func TestNewWorkloadMachineRDAssignment(t *testing.T) {
	src := rng.New(7)
	s := PaperSpec(10, Consistent)
	s.NumRDs = 3
	w, err := NewWorkload(src, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.MachineRD) != 5 {
		t.Fatalf("machineRD len = %d", len(w.MachineRD))
	}
	rdSeen := map[grid.DomainID]bool{}
	for m, rd := range w.MachineRD {
		if int(rd) < 0 || int(rd) >= 3 {
			t.Fatalf("machine %d assigned to RD %d", m, rd)
		}
		rdSeen[rd] = true
	}
	if len(rdSeen) != 3 {
		t.Fatalf("only %d RDs own machines, want 3", len(rdSeen))
	}
}

func TestNewWorkloadDeterminism(t *testing.T) {
	a, err := NewWorkload(rng.New(5), PaperSpec(30, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewWorkload(rng.New(5), PaperSpec(30, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCDs != b.NumCDs || a.NumRDs != b.NumRDs {
		t.Fatal("same seed produced different domain counts")
	}
	for i := range a.Requests {
		ra, rb := a.Requests[i], b.Requests[i]
		if ra.ArrivalAt != rb.ArrivalAt || ra.CD != rb.CD || ra.ClientRTL != rb.ClientRTL {
			t.Fatalf("request %d differs between identical seeds", i)
		}
	}
}

func TestNewWorkloadValidation(t *testing.T) {
	src := rng.New(1)
	bad := []Spec{
		{},
		{Tasks: 10},
		{Tasks: 10, Machines: 5},
		{Tasks: 10, Machines: 5, ArrivalRate: 1, MinToAs: 0, MaxToAs: 4},
		{Tasks: 10, Machines: 5, ArrivalRate: 1, MinToAs: 3, MaxToAs: 2},
		{Tasks: 10, Machines: 5, ArrivalRate: 1, MinToAs: 1, MaxToAs: 99},
		{Tasks: -1, Machines: 5, ArrivalRate: 1, MinToAs: 1, MaxToAs: 2},
	}
	for i, s := range bad {
		s.Heterogeneity = LoLo
		if _, err := NewWorkload(src, s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	if _, err := NewWorkload(nil, PaperSpec(5, Consistent)); err == nil {
		t.Error("accepted nil source")
	}
}

func TestWorkloadTrustCost(t *testing.T) {
	src := rng.New(9)
	w, err := NewWorkload(src, PaperSpec(20, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w.Requests {
		for m := 0; m < w.Spec.Machines; m++ {
			tc, err := w.TrustCost(r, m)
			if err != nil {
				t.Fatalf("TrustCost(req %d, machine %d): %v", r.ID, m, err)
			}
			if tc < grid.TCMin || tc > grid.TCMax {
				t.Fatalf("TC = %d outside [0,6]", tc)
			}
			// Cross-check against a manual computation.
			rd := w.MachineRD[m]
			otl, err := w.Table.OTL(r.CD, rd, r.ToA)
			if err != nil {
				t.Fatal(err)
			}
			want, err := grid.TrustCostWith(w.Spec.ETSRule, r.ClientRTL, w.ResourceRTL[rd], otl)
			if err != nil {
				t.Fatal(err)
			}
			if tc != want {
				t.Fatalf("TC mismatch: got %d want %d", tc, want)
			}
			// A machine is priced as its resource domain.
			if byRD, err := w.TrustCostRD(r, rd); err != nil || byRD != tc {
				t.Fatalf("TrustCostRD(req %d, RD %d) = %d, %v; machine %d prices %d", r.ID, rd, byRD, err, m, tc)
			}
		}
	}
	if _, err := w.TrustCostRD(w.Requests[0], grid.DomainID(w.NumRDs)); err == nil {
		t.Error("priced a resource domain with no trust-table rows")
	}
	if _, err := w.TrustCost(w.Requests[0], -1); err == nil {
		t.Error("accepted negative machine index")
	}
	if _, err := w.TrustCost(w.Requests[0], 99); err == nil {
		t.Error("accepted out-of-range machine index")
	}
}

func TestWorkloadExplicitDomainCounts(t *testing.T) {
	src := rng.New(11)
	s := PaperSpec(10, Consistent)
	s.NumCDs, s.NumRDs = 2, 4
	w, err := NewWorkload(src, s)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumCDs != 2 || w.NumRDs != 4 {
		t.Fatalf("explicit domain counts ignored: %d/%d", w.NumCDs, w.NumRDs)
	}
}

func TestArrivalRateControlsSpacing(t *testing.T) {
	fast, err := NewWorkload(rng.New(3), Spec{
		Tasks: 200, Machines: 5, ArrivalRate: 10, MinToAs: 1, MaxToAs: 4,
		Heterogeneity: LoLo, Consistency: Inconsistent,
	})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewWorkload(rng.New(3), Spec{
		Tasks: 200, Machines: 5, ArrivalRate: 0.1, MinToAs: 1, MaxToAs: 4,
		Heterogeneity: LoLo, Consistency: Inconsistent,
	})
	if err != nil {
		t.Fatal(err)
	}
	fastSpan := fast.Requests[len(fast.Requests)-1].ArrivalAt
	slowSpan := slow.Requests[len(slow.Requests)-1].ArrivalAt
	if slowSpan < 10*fastSpan {
		t.Fatalf("arrival rate has no effect: fast span %g, slow span %g", fastSpan, slowSpan)
	}
}

func TestDeadlineGeneration(t *testing.T) {
	spec := PaperSpec(30, Inconsistent)
	spec.DeadlineSlack = 4
	w, err := NewWorkload(rng.New(51), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range w.Requests {
		if r.Deadline <= r.ArrivalAt {
			t.Fatalf("request %d deadline %g not after arrival %g", i, r.Deadline, r.ArrivalAt)
		}
		meanEEC := 0.0
		for m := 0; m < spec.Machines; m++ {
			meanEEC += w.EEC.At(i, m)
		}
		meanEEC /= float64(spec.Machines)
		want := r.ArrivalAt + 4*meanEEC
		if diff := r.Deadline - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("request %d deadline %g, want %g", i, r.Deadline, want)
		}
	}
	// Slack 0 disables deadlines.
	w2, err := NewWorkload(rng.New(51), PaperSpec(10, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range w2.Requests {
		if r.Deadline != 0 {
			t.Fatal("deadline set without slack")
		}
	}
	bad := PaperSpec(10, Inconsistent)
	bad.DeadlineSlack = -1
	if _, err := NewWorkload(rng.New(1), bad); err == nil {
		t.Fatal("negative slack accepted")
	}
}

func TestTCStats(t *testing.T) {
	w, err := NewWorkload(rng.New(61), PaperSpec(60, Inconsistent))
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.TCStats()
	if err != nil {
		t.Fatal(err)
	}
	if d.Pairs != 60*5 {
		t.Fatalf("pairs = %d, want 300", d.Pairs)
	}
	total := 0
	var weighted float64
	for tc, c := range d.Counts {
		if c < 0 {
			t.Fatalf("negative count at TC %d", tc)
		}
		total += c
		weighted += float64(tc * c)
	}
	if total != d.Pairs {
		t.Fatalf("counts sum to %d, want %d", total, d.Pairs)
	}
	if got := weighted / float64(total); got != d.Mean {
		t.Fatalf("mean %g inconsistent with counts (%g)", d.Mean, got)
	}
	// The paper's calibration: "the average TC value is 3".  Any single
	// instance fluctuates; allow a generous band.
	if d.Mean < 1.5 || d.Mean > 4.5 {
		t.Fatalf("mean TC %g far from the paper's ~3", d.Mean)
	}
}

// TestTCStatsMeanAcrossSeeds verifies the ~3 calibration in aggregate,
// where the law of large numbers applies.
func TestTCStatsMeanAcrossSeeds(t *testing.T) {
	var sum float64
	const seeds = 40
	for seed := uint64(0); seed < seeds; seed++ {
		w, err := NewWorkload(rng.New(seed), PaperSpec(50, Inconsistent))
		if err != nil {
			t.Fatal(err)
		}
		d, err := w.TCStats()
		if err != nil {
			t.Fatal(err)
		}
		sum += d.Mean
	}
	mean := sum / seeds
	if mean < 2.5 || mean > 3.5 {
		t.Fatalf("aggregate mean TC %g outside the paper's ~3 band", mean)
	}
}
