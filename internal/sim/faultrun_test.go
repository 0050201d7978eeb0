package sim

import (
	"math"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// referenceAvailability is the event-per-task loop's availability as it
// was when the loop kept no free times: every up machine's drain time
// rebuilt by walking its running task and its queue in commitment order,
// every down machine masked.  It is the oracle for the loop's free-time
// vector, compared bit for bit.
func referenceAvailability(scr *runScratch, now float64) []float64 {
	avail := make([]float64, len(scr.up))
	for m := range avail {
		if !scr.up[m] {
			avail[m] = sched.Masked()
			continue
		}
		base := now
		if scr.running[m].req != -1 {
			base = scr.runStart[m] + scr.running[m].ecc
		}
		for _, t := range scr.queue[m] {
			base += t.ecc
		}
		avail[m] = base
	}
	return avail
}

// TestAvailabilityMatchesQueueWalk steps event-loop runs through time,
// alternately one event (q.Step, so the clock rests on an event) and a
// stretch of q.RunUntil (so it rests between events), and at every step
// holds the vector the loop hands its heuristics to the queue walk, bit
// for bit: under churn (heavy enough that the whole grid is sometimes
// down and arrivals are deferred), under whitewashing and under a live
// trust model, in immediate and batch mode.
func TestAvailabilityMatchesQueueWalk(t *testing.T) {
	heavy := fault.Plan{MTBF: 300, MTTR: 400, MaxRequeues: 1000, Seed: 3}
	light := fault.Plan{MTBF: 2000, MTTR: 200, Seed: 9}
	lying := fault.Plan{AdversaryFraction: 0.5, Seed: 4}
	both := fault.Plan{MTBF: 1000, MTTR: 150, AdversaryFraction: 0.5, Seed: 6}
	cases := []struct {
		name      string
		heuristic string
		plan      fault.Plan
		model     string
	}{
		{"mct/heavy-churn", "mct", heavy, ""},
		{"mct/churn", "mct", light, ""},
		{"met/heavy-churn", "met", heavy, ""},
		{"olb/churn", "olb", light, ""},
		{"minmin/heavy-churn", "minmin", heavy, ""},
		{"sufferage/churn+whitewash", "sufferage", both, ""},
		{"mct/whitewash", "mct", lying, ""},
		{"mct/churn+whitewash", "mct", both, ""},
		{"mct/purge", "mct", fault.Plan{}, "purge"},
		{"mct/frtrust+churn", "mct", light, "frtrust"},
		{"mct/bawa+churn+whitewash", "mct", both, "bawa"},
		{"minmin/purge+churn", "minmin", light, "purge"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := PaperScenario(tc.heuristic, 60, workload.Inconsistent)
			if tc.heuristic != "minmin" && tc.heuristic != "sufferage" {
				sc.Mode = Immediate
			}
			sc.Heuristic = tc.heuristic
			sc.Fault = tc.plan
			sc.TrustModel = tc.model
			w := mustWorkload(t, sc, 17)
			for _, policy := range []sched.Policy{sched.MustTrustAware(sc.TCWeight), sched.MustTrustUnaware(sc.FlatOverheadPct)} {
				st, err := newFaultState(sc, w, policy, nil, &runScratch{})
				if err != nil {
					t.Fatal(err)
				}
				steps, masked, allDown := 0, 0, 0
				for st.completed < sc.Tasks && st.err == nil {
					if st.q.Pending() == 0 {
						t.Fatalf("%s: queue drained with %d of %d completed", policy.Name, st.completed, sc.Tasks)
					}
					if steps%2 == 0 {
						st.q.Step()
					} else {
						st.q.RunUntil(st.q.Now() + 37.5)
					}
					now := st.q.Now()
					want := referenceAvailability(st.scr, now)
					got := st.availability(now)
					up := 0
					for m := range want {
						if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
							t.Fatalf("%s step %d (t=%v) machine %d: availability %v (%#x), queue walk %v (%#x)",
								policy.Name, steps, now, m, got[m], math.Float64bits(got[m]), want[m], math.Float64bits(want[m]))
						}
						if sched.IsMasked(want[m]) {
							masked++
						} else {
							up++
						}
					}
					if up == 0 {
						allDown++
					}
					steps++
				}
				if st.err != nil {
					t.Fatalf("%s: %v", policy.Name, st.err)
				}
				if tc.plan.Churn() && masked == 0 {
					t.Fatalf("%s: churn never masked a machine over %d steps", policy.Name, steps)
				}
				if tc.plan == heavy && allDown == 0 {
					t.Fatalf("%s: heavy churn never took the whole grid down over %d steps", policy.Name, steps)
				}
			}
		})
	}
}
