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
					if ctc, _ := claimed.TrustCost(r, m); ctc > tc {
						tc = ctc
					}
					return tc
				}
				uncachedError := func() float64 {
					var gap int64
					for r := range w.Requests {
						for m := 0; m < sc.Machines; m++ {
							ttc, _ := truth.TrustCost(r, m)
							d := uncached(r, m) - ttc
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
						got, err := v.TrustCost(r, m)
						if err != nil {
							t.Fatal(err)
						}
						if want := uncached(r, m); got != want {
							t.Fatalf("step %d: TrustCost(%d,%d) = %d, uncached %d", step, r, m, got, want)
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

// recordingModel wraps a model and records every Trust call.
type recordingModel struct {
	trust.Model
	calls []string
}

func (m *recordingModel) Trust(x, y trust.EntityID, c trust.Context, now float64) (float64, error) {
	m.calls = append(m.calls, fmt.Sprintf("%s>%s/%s", x, y, c))
	return m.Model.Trust(x, y, c, now)
}

// TestDecisionRowAsksLikeAssignOne: the fused MCT scan reads a request's
// decision row once, where sched.MCT asked TrustCost machine by machine.
// Two views fed the same completions must see the same Trust calls in the
// same order, one read through decisionRow, the other through
// sched.MCT.AssignOne, on a layout whose RD slots interleave.
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
			if _, err := views[0].decisionRow(r); err != nil {
				t.Fatal(err)
			}
			if _, err := (sched.MCT{}).AssignOne(views[1], policy, r, avail); err != nil {
				t.Fatal(err)
			}
		}
		a, b := recs[0].calls, recs[1].calls
		if len(a) != len(b) {
			t.Fatalf("%s: decisionRow asked %d times, AssignOne %d", model, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: Trust call %d: decisionRow asked %s, AssignOne %s", model, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("%s: no Trust calls", model)
		}
	}
}
