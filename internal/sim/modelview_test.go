package sim

import (
	"fmt"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
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
