package sched

import (
	"testing"
)

func reqRange(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

func TestMinMinHandComputed(t *testing.T) {
	// exec = [[2,4],[3,1],[5,6]], avail=[0,0].
	// Round 1 bests: t0->m0@2, t1->m1@1, t2->m0@5; global min t1@m1.
	// Round 2 (a=[0,1]): t0->m0@2, t2->m0@5; min t0@m0.
	// Round 3 (a=[2,1]): t2: m0@7, m1@7 -> tie, first strict win m0.
	c := zeroTC(t, [][]float64{{2, 4}, {3, 1}, {5, 6}})
	as, err := MinMin{}.AssignBatchInto(c, aware, reqRange(3), []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Assignment{
		{Req: 1, Machine: 1, DecisionCompletion: 1},
		{Req: 0, Machine: 0, DecisionCompletion: 2},
		{Req: 2, Machine: 0, DecisionCompletion: 7},
	}
	if len(as) != len(want) {
		t.Fatalf("assignments = %v", as)
	}
	for i := range want {
		if as[i] != want[i] {
			t.Fatalf("assignment %d = %+v, want %+v", i, as[i], want[i])
		}
	}
}

func TestMaxMinHandComputed(t *testing.T) {
	// Same instance; Max-min places the long task first.
	// Round 1 bests: t0@2, t1@1, t2@5 -> max is t2@m0.
	// Round 2 (a=[5,0]): t0: m0@7, m1@4 -> 4@m1; t1: m0@8, m1@1 -> 1@m1;
	// max is t0@m1(4).
	// Round 3 (a=[5,4]): t1: m0@8, m1@5 -> m1@5.
	c := zeroTC(t, [][]float64{{2, 4}, {3, 1}, {5, 6}})
	as, err := MaxMin{}.AssignBatchInto(c, aware, reqRange(3), []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Assignment{
		{Req: 2, Machine: 0, DecisionCompletion: 5},
		{Req: 0, Machine: 1, DecisionCompletion: 4},
		{Req: 1, Machine: 1, DecisionCompletion: 5},
	}
	for i := range want {
		if as[i] != want[i] {
			t.Fatalf("assignment %d = %+v, want %+v", i, as[i], want[i])
		}
	}
}

func TestSufferageHandComputed(t *testing.T) {
	// exec = [[4,1],[3,2],[6,7]], avail=[0,0].
	// Iter 1: t0 best m1@1 suffer 3 claims m1; t1 best m1@2 suffer 1
	// loses to t0; t2 best m0@6 suffer 1 claims m0.
	// Commit t0->m1@1, t2->m0@6 (machine order), a=[6,1].
	// Iter 2: t1 best m1@3.
	c := zeroTC(t, [][]float64{{4, 1}, {3, 2}, {6, 7}})
	as, err := Sufferage{}.AssignBatchInto(c, aware, reqRange(3), []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Assignment{
		{Req: 2, Machine: 0, DecisionCompletion: 6},
		{Req: 0, Machine: 1, DecisionCompletion: 1},
		{Req: 1, Machine: 1, DecisionCompletion: 3},
	}
	if len(as) != len(want) {
		t.Fatalf("assignments = %v", as)
	}
	for i := range want {
		if as[i] != want[i] {
			t.Fatalf("assignment %d = %+v, want %+v", i, as[i], want[i])
		}
	}
}

func TestSufferageEvictionPrefersLargerSufferage(t *testing.T) {
	// Both tasks prefer m0; t1's sufferage is larger, so it wins the
	// machine and t0 waits a full iteration.
	// t0: m0@1, m1@2 -> suffer 1.  t1: m0@1, m1@10 -> suffer 9.
	c := zeroTC(t, [][]float64{{1, 2}, {1, 10}})
	as, err := Sufferage{}.AssignBatchInto(c, aware, reqRange(2), []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Req != 1 || as[0].Machine != 0 {
		t.Fatalf("first commit = %+v, want request 1 on machine 0", as[0])
	}
	// Iteration 2: t0 sees m0@2, m1@2 — tie keeps m0 (first minimum).
	if as[1].Req != 0 {
		t.Fatalf("second commit = %+v, want request 0", as[1])
	}
}

func TestSufferageSingleMachine(t *testing.T) {
	c := zeroTC(t, [][]float64{{3}, {5}, {1}})
	as, err := Sufferage{}.AssignBatchInto(c, aware, reqRange(3), []float64{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 3 {
		t.Fatalf("assigned %d of 3 tasks", len(as))
	}
	// All on machine 0; with suffer=0 ties, first-come wins each
	// iteration: t0, then t1, then t2.
	total := 0.0
	for _, a := range as {
		if a.Machine != 0 {
			t.Fatalf("assignment %+v on non-existent machine", a)
		}
		total += c.Exec[a.Req][0]
	}
	if as[len(as)-1].DecisionCompletion != total {
		t.Fatalf("final completion %g, want %g", as[len(as)-1].DecisionCompletion, total)
	}
}

func TestBatchAssignsEveryRequestOnce(t *testing.T) {
	exec := [][]float64{
		{7, 3, 9}, {2, 8, 4}, {5, 5, 5}, {1, 9, 2}, {6, 2, 8},
		{3, 3, 1}, {9, 1, 7}, {4, 6, 2},
	}
	c := zeroTC(t, exec)
	for _, h := range []Batch{MinMin{}, MaxMin{}, Sufferage{}, Duplex{}} {
		as, err := h.AssignBatchInto(c, aware, reqRange(8), []float64{0, 0, 0}, nil)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		seen := make(map[int]bool)
		for _, a := range as {
			if seen[a.Req] {
				t.Fatalf("%s assigned request %d twice", h.Name(), a.Req)
			}
			seen[a.Req] = true
			if a.Machine < 0 || a.Machine >= 3 {
				t.Fatalf("%s used machine %d", h.Name(), a.Machine)
			}
		}
		if len(seen) != 8 {
			t.Fatalf("%s assigned %d of 8 requests", h.Name(), len(seen))
		}
	}
}

func TestBatchSubsetOfRequests(t *testing.T) {
	// Heuristics must honour an explicit meta-request subset.
	c := zeroTC(t, [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	as, err := MinMin{}.AssignBatchInto(c, aware, []int{1, 3}, []float64{0, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != 2 {
		t.Fatalf("assigned %d, want 2", len(as))
	}
	for _, a := range as {
		if a.Req != 1 && a.Req != 3 {
			t.Fatalf("assigned request %d outside the meta-request", a.Req)
		}
	}
}

func TestDuplexPicksBetterSchedule(t *testing.T) {
	// Construct an instance where Max-min beats Min-min: one long task
	// and several short ones on two machines.  Min-min packs the short
	// tasks first and strands the long one; Max-min places it first.
	exec := [][]float64{
		{10, 10}, {1, 1}, {1, 1}, {1, 1}, {1, 1},
	}
	c := zeroTC(t, exec)
	avail := []float64{0, 0}
	minAs, err := MinMin{}.AssignBatchInto(c, aware, reqRange(5), avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxAs, err := MaxMin{}.AssignBatchInto(c, aware, reqRange(5), avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	dupAs, err := Duplex{}.AssignBatchInto(c, aware, reqRange(5), avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	minMS := decisionMakespan(minAs, avail)
	maxMS := decisionMakespan(maxAs, avail)
	dupMS := decisionMakespan(dupAs, avail)
	if maxMS >= minMS {
		t.Skipf("instance did not separate Max-min (%g) from Min-min (%g)", maxMS, minMS)
	}
	if dupMS != maxMS {
		t.Fatalf("Duplex makespan %g, want the better %g", dupMS, maxMS)
	}
}

// TestDuplexIgnoresMaskedMachines is TestDuplexPicksBetterSchedule's
// instance with a third, down machine: its +Inf availability must not
// enter either candidate's makespan, so Duplex still keeps Max-min's.
func TestDuplexIgnoresMaskedMachines(t *testing.T) {
	c := zeroTC(t, [][]float64{{10, 10, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}})
	avail := []float64{0, 0, Masked()}
	maxAs, err := MaxMin{}.AssignBatchInto(c, aware, reqRange(5), avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	dupAs, err := Duplex{}.AssignBatchInto(c, aware, reqRange(5), avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSchedule(t, "Duplex over a masked machine", dupAs, maxAs)
	if ms := decisionMakespan(dupAs, avail); ms != 10 {
		t.Fatalf("Duplex makespan %g with a machine down, want Max-min's 10", ms)
	}
}

func TestBatchValidation(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 2}})
	if _, err := (MinMin{}).AssignBatchInto(c, aware, []int{5}, []float64{0, 0}, nil); err == nil {
		t.Error("accepted out-of-range request index")
	}
	if _, err := (MinMin{}).AssignBatchInto(c, aware, []int{0}, []float64{0}, nil); err == nil {
		t.Error("accepted short availability vector")
	}
	if _, err := (Sufferage{}).AssignBatchInto(nil, aware, []int{0}, []float64{0, 0}, nil); err == nil {
		t.Error("accepted nil costs")
	}
	// Empty meta-request is legal and yields an empty schedule.
	as, err := (MinMin{}).AssignBatchInto(c, aware, nil, []float64{0, 0}, nil)
	if err != nil || len(as) != 0 {
		t.Errorf("empty batch: %v, %v", as, err)
	}
}

func TestBatchByName(t *testing.T) {
	for _, name := range []string{"minmin", "maxmin", "sufferage", "duplex"} {
		h, err := BatchByName(name)
		if err != nil || h == nil {
			t.Errorf("BatchByName(%q): %v", name, err)
		}
	}
	if _, err := BatchByName("bogus"); err == nil {
		t.Error("unknown batch heuristic accepted")
	}
}

func TestBatchRespectsInitialAvailability(t *testing.T) {
	c := zeroTC(t, [][]float64{{5, 5}})
	as, err := MinMin{}.AssignBatchInto(c, aware, []int{0}, []float64{100, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if as[0].Machine != 1 || as[0].DecisionCompletion != 5 {
		t.Fatalf("assignment %+v ignored initial availability", as[0])
	}
}

func TestChargedMakespan(t *testing.T) {
	c := withTC(t, [][]float64{{10, 10}, {10, 10}}, [][]int{{0, 6}, {0, 6}})
	as := []Assignment{{Req: 0, Machine: 0}, {Req: 1, Machine: 1}}
	// Machine 0 charged 10 (TC=0), machine 1 charged 19 (TC=6, +90%).
	ms, err := ChargedMakespan(c, aware, as, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ms != 19 {
		t.Fatalf("charged makespan = %g, want 19", ms)
	}
	// Unaware charges flat 50%: both machines 15.
	ms, err = ChargedMakespan(c, unaware, as, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if ms != 15 {
		t.Fatalf("unaware charged makespan = %g, want 15", ms)
	}
	if _, err := ChargedMakespan(c, aware, []Assignment{{Req: 0, Machine: 9}}, []float64{0, 0}); err == nil {
		t.Fatal("accepted assignment to unknown machine")
	}
}
