package sim

import (
	"fmt"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

// TestModelViewMatchesUncached drives a view through random interleavings
// of decisions, completions and table-error reads, and requires every
// answer to equal an uncached twin: a fresh model fed the same
// observations, its Trust quantised, priced and max-fused with the
// claimed cost on every call.
func TestModelViewMatchesUncached(t *testing.T) {
	for _, model := range []string{"purge", "frtrust", "bawa"} {
		for _, adv := range []float64{0, 0.5} {
			t.Run(fmt.Sprintf("%s/adv%g", model, adv), func(t *testing.T) {
				sc := PaperScenario("mct", 300, workload.Inconsistent)
				sc.Machines, sc.ArrivalRate = 9, 0.04*9/5
				sc.NumCDs, sc.NumRDs = 3, 3
				sc.TrustModel = model
				sc.Fault = fault.Plan{AdversaryFraction: adv, Seed: 5}
				w := mustWorkload(t, sc, 11)
				truth, err := newWorkloadCosts(w)
				if err != nil {
					t.Fatal(err)
				}
				claimed, _, err := newFaultCosts(truth, sc.Fault)
				if err != nil {
					t.Fatal(err)
				}
				v, err := newModelView(sc, truth, claimed)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := trust.NewModel(model, viewModelConfig())
				if err != nil {
					t.Fatal(err)
				}
				ctx := func(r int) trust.Context { return trust.Context(w.Requests[r].ToA.String()) }
				cd := func(r int) trust.EntityID { return trust.EntityID(fmt.Sprintf("cd:%d", w.Requests[r].CD)) }
				rd := func(m int) trust.EntityID { return trust.EntityID(fmt.Sprintf("rd:%d", w.MachineRD[m])) }
				uncached := func(r, m int) int {
					req := w.Requests[r]
					score, err := twin.Trust(cd(r), rd(m), ctx(r), 0)
					if err != nil {
						t.Fatal(err)
					}
					lvl := grid.LevelFromScore(score)
					if !lvl.Offerable() {
						lvl = grid.MaxOfferable
					}
					tc, err := grid.TrustCostWith(w.Spec.ETSRule, req.ClientRTL, w.ResourceRTL[w.MachineRD[m]], lvl)
					if err != nil {
						t.Fatal(err)
					}
					if ctc := claimed.tcRow(r)[claimed.rdOf[m]]; ctc > tc {
						tc = ctc
					}
					return tc
				}
				uncachedError := func() float64 {
					var gap int64
					for r := range w.Requests {
						for m := 0; m < sc.Machines; m++ {
							d := uncached(r, m) - truth.tcRow(r)[truth.rdOf[m]]
							if d < 0 {
								d = -d
							}
							gap += int64(d)
						}
					}
					return float64(gap) / float64(len(w.Requests)*sc.Machines)
				}
				src := rng.New(uint64(len(model)) + uint64(adv*10))
				for step := 0; step < 3000; step++ {
					r, m := src.Intn(len(w.Requests)), src.Intn(sc.Machines)
					switch p := src.Intn(100); {
					case p < 30:
						if err := v.noteFinish(r, m); err != nil {
							t.Fatal(err)
						}
						otl, err := w.Table.OTL(w.Requests[r].CD, w.MachineRD[m], w.Requests[r].ToA)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := twin.Observe(cd(r), rd(m), ctx(r), float64(otl), 0); err != nil {
							t.Fatal(err)
						}
					case p < 99:
						_, tcs, err := v.CostRows(r)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := tcs[truth.rdOf[m]], uncached(r, m); got != want {
							t.Fatalf("step %d: TC(%d,%d) = %d, uncached %d", step, r, m, got, want)
						}
					default:
						got, err := v.tableError()
						if err != nil {
							t.Fatal(err)
						}
						if want := uncachedError(); got != want {
							t.Fatalf("step %d: tableError %v, uncached %v", step, got, want)
						}
					}
				}
			})
		}
	}
}

// recordingModel wraps a model and records every TrustOf call, the form
// the view asks by.
type recordingModel struct {
	trust.Model
	calls []string
}

func (m *recordingModel) TrustOf(x, y trust.Ent, c trust.Ctx, now float64) (float64, error) {
	m.calls = append(m.calls, fmt.Sprintf("%v>%v/%v", x, y, c))
	return m.Model.TrustOf(x, y, c, now)
}

// TestDecisionRowAsksLikeAssignOne: every heuristic, the fused MCT scan
// included, reads a request's decision row once through CostRows, where
// sched.MCT once asked for the trust cost machine by machine.  Two views
// fed the same completions must see the same Trust calls in the same
// order, one read through sched.MCT.AssignOne, the other by that
// per-machine walk, on a layout whose RD slots interleave.
func TestDecisionRowAsksLikeAssignOne(t *testing.T) {
	for _, model := range []string{"purge", "frtrust", "bawa"} {
		sc := PaperScenario("mct", 200, workload.Inconsistent)
		sc.Machines, sc.NumCDs, sc.NumRDs = 11, 3, 4
		sc.TrustModel = model
		sc.Fault = fault.Plan{AdversaryFraction: 0.5, Seed: 3}
		w := mustWorkload(t, sc, 21)
		views := [2]*modelView{}
		recs := [2]*recordingModel{}
		for i := range views {
			truth, err := newWorkloadCosts(w)
			if err != nil {
				t.Fatal(err)
			}
			claimed, _, err := newFaultCosts(truth, sc.Fault)
			if err != nil {
				t.Fatal(err)
			}
			if views[i], err = newModelView(sc, truth, claimed); err != nil {
				t.Fatal(err)
			}
			recs[i] = &recordingModel{Model: views[i].model}
			views[i].model = recs[i]
		}
		avail := make([]float64, sc.Machines)
		policy := sched.MustTrustAware(sc.TCWeight)
		src := rng.New(8)
		for step := 0; step < 2000; step++ {
			r, m := src.Intn(len(w.Requests)), src.Intn(sc.Machines)
			if src.Bool(0.4) {
				for _, v := range views {
					if err := v.noteFinish(r, m); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if _, err := (sched.MCT{}).AssignOne(views[0], policy, r, avail); err != nil {
				t.Fatal(err)
			}
			for _, s := range views[1].truth.rdOf {
				if _, err := views[1].decisionTC(views[1].truth.rowOf[r], int(s)); err != nil {
					t.Fatal(err)
				}
			}
		}
		a, b := recs[0].calls, recs[1].calls
		if len(a) != len(b) {
			t.Fatalf("%s: AssignOne asked %d times, the machine walk %d", model, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Trust call %d: AssignOne asked %s, the machine walk %s", model, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("%s: no Trust calls", model)
		}
	}
}

// TestRequestCDPastNumCDs runs a workload one of whose requests names a
// client domain past NumCDs that the trust table has rows for.  The
// table-driven run prices it like any other; a model-driven run must
// too, asking the model as a client domain of its own, "cd:2".
func TestRequestCDPastNumCDs(t *testing.T) {
	sc := PaperScenario("mct", 40, workload.Inconsistent)
	sc.Machines, sc.ArrivalRate = 6, 0.04*6/5
	sc.NumCDs, sc.NumRDs = 2, 2
	w := mustWorkload(t, sc, 17)
	for _, e := range w.Table.Replica().Since(0) {
		if e.CD == 1 {
			if err := w.Table.Set(2, e.RD, e.Activity, e.Level); err != nil {
				t.Fatal(err)
			}
		}
	}
	const moved = 7
	w.Requests[moved].CD = 2
	policy := sched.MustTrustAware(sc.TCWeight)
	for _, model := range []string{"", "purge", "frtrust", "bawa"} {
		msc := sc
		msc.TrustModel = model
		if _, err := Run(msc, w, policy); err != nil {
			t.Fatalf("trust model %q: %v", model, err)
		}
		if model == "" {
			continue
		}
		truth, err := newWorkloadCosts(w)
		if err != nil {
			t.Fatal(err)
		}
		v, err := newModelView(msc, truth, truth)
		if err != nil {
			t.Fatal(err)
		}
		own := v.askCD[truth.askOf[truth.rowOf[moved]]]
		for r := range w.Requests {
			if a := truth.askOf[truth.rowOf[r]]; r != moved && v.askCD[a] == own {
				t.Fatalf("%s: request %d (CD %d) is asked as the moved request's CD 2", model, r, w.Requests[r].CD)
			}
		}
		if got, want := own, v.model.Entity("cd:2"); got != want {
			t.Fatalf("%s: the moved request asks as %v, the model's cd:2 is %v", model, got, want)
		}
	}
}
