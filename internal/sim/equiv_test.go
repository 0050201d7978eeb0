package sim

import (
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// equivScenarios spans the run loops' code paths: the fused immediate scan
// (mct), AssignOne immediate (met/olb/kpb/sa), batch, deadlines, churn and
// adversary injection.
func equivScenarios() []Scenario {
	mk := func(name, heuristic string, mode Mode, tasks int) Scenario {
		sc := PaperScenario("mct", tasks, workload.Inconsistent)
		sc.Name = name
		sc.Mode = mode
		sc.Heuristic = heuristic
		return sc
	}
	scs := []Scenario{
		mk("imm-mct", "mct", Immediate, 60),
		mk("imm-met", "met", Immediate, 40),
		mk("imm-olb", "olb", Immediate, 40),
		mk("imm-kpb", "kpb", Immediate, 40),
		mk("imm-sa", "sa", Immediate, 40),
		mk("batch-minmin", "minmin", Batch, 60),
		mk("batch-sufferage", "sufferage", Batch, 40),
	}
	dl := mk("imm-mct-deadline", "mct", Immediate, 40)
	dl.DeadlineSlack = 2
	scs = append(scs, dl)
	churn := mk("fault-churn", "mct", Immediate, 40)
	churn.Fault = fault.Plan{MTBF: 2000, MTTR: 200}
	scs = append(scs, churn)
	churnBatch := mk("fault-churn-batch", "minmin", Batch, 40)
	churnBatch.Fault = fault.Plan{MTBF: 2000, MTTR: 200}
	scs = append(scs, churnBatch)
	adv := mk("fault-adversary", "mct", Immediate, 40)
	adv.Fault = fault.Plan{AdversaryFraction: 0.5}
	scs = append(scs, adv)
	return scs
}

// The two tests below are named for what their golden files hold: what the
// two kernel copies of the run loops both produced on these scenarios at
// commit 6ab2e3a, the last to have a second copy.  The files follow the
// protocol TestGoldenDigests describes.

// TestKernelEquivalence pins full paired results: both policies on one
// workload and one shared scratch, as every sweep runs them.
func TestKernelEquivalence(t *testing.T) {
	pinEquiv(t, "testdata/golden_equiv_pairs.json", func(t *testing.T, sc Scenario, h hash.Hash) {
		for seed := uint64(1); seed <= 3; seed++ {
			pair, err := RunPair(sc, rng.New(seed))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			hashResult(h, pair.Unaware)
			hashResult(h, pair.Aware)
		}
	})
}

// TestKernelEquivalenceTraced pins one traced run event by event: fire
// order, timestamps and costs.
func TestKernelEquivalenceTraced(t *testing.T) {
	pinEquiv(t, "testdata/golden_equiv_traces.json", func(t *testing.T, sc Scenario, h hash.Hash) {
		w := mustWorkload(t, sc, 99)
		if sc.Fault.Active() {
			sc.Fault.Seed = 77
		}
		aware, _, err := sc.policies()
		if err != nil {
			t.Fatal(err)
		}
		var tr trace.Trace
		res, err := RunTraced(sc, w, aware, &tr)
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res)
		hashEvents(h, tr.Events())
	})
}

// pinEquiv hashes what run writes for each scenario, one subtest each, and
// compares with the digests pinned in file.
func pinEquiv(t *testing.T, file string, run func(*testing.T, Scenario, hash.Hash)) {
	want := pinned(t, file)
	got := map[string]string{}
	for _, sc := range equivScenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			h := fnv.New64a()
			run(t, sc, h)
			got[sc.Name] = fmt.Sprintf("%016x", h.Sum64())
			if want != nil && got[sc.Name] != want[sc.Name] {
				t.Errorf("digest %s, pinned %s in %s", got[sc.Name], want[sc.Name], file)
			}
		})
	}
	if want == nil {
		record(t, file, got)
	}
}

// TestRunRejectsZeroPolicy: the fused MCT scan reads the policy's
// decision form without going through sched, so Run must reject a Policy
// no constructor built before any scan, on both run loops and in batch
// mode alike.
func TestRunRejectsZeroPolicy(t *testing.T) {
	mct := PaperScenario("mct", 20, workload.Inconsistent)
	churn := mct
	churn.Fault = fault.Plan{MTBF: 2000, MTTR: 200, Seed: 1}
	for _, sc := range []Scenario{mct, churn, PaperScenario("minmin", 20, workload.Inconsistent)} {
		if _, err := Run(sc, mustWorkload(t, sc, 1), sched.Policy{}); err == nil {
			t.Errorf("%s (fault plan active: %v) ran a zero policy", sc.Name, sc.Fault.Active())
		}
	}
}

// TestFusedScanMatchesAssignOne drives the fused MCT pick directly against
// sched.MCT on randomized free-time states, a tenth of the machines masked
// and every tenth state entirely masked (AssignOne fails, the pick is −1),
// deciding on the truth, on a whitewashed table and on a live model's
// rows, which completions fed into the model keep moving.
func TestFusedScanMatchesAssignOne(t *testing.T) {
	src := rng.New(13)
	sc := PaperScenario("mct", 30, workload.Inconsistent)
	sc.Mode = Immediate
	sc.Machines = 17
	sc.Fault = fault.Plan{AdversaryFraction: 0.5, Seed: 2}
	sc.TrustModel = "purge"
	w, err := workload.NewWorkload(src, sc.WorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	costs, err := newWorkloadCosts(w)
	if err != nil {
		t.Fatal(err)
	}
	claimed, _, err := newFaultCosts(costs, sc.Fault)
	if err != nil {
		t.Fatal(err)
	}
	if claimed == costs {
		t.Fatal("no resource domain whitewashes; the claimed rows equal the truth")
	}
	view, err := newModelView(sc, costs, claimed)
	if err != nil {
		t.Fatal(err)
	}
	aware, unaware, err := sc.policies()
	if err != nil {
		t.Fatal(err)
	}
	decs := []struct {
		name string
		dec  sched.Costs
	}{{"truth", costs}, {"whitewashed", claimed}, {"model", view}}
	for _, d := range decs {
		for _, policy := range []sched.Policy{aware, unaware} {
			h := sched.MCT{}
			scr := &runScratch{}
			scr.prepare(sc.Machines)
			scr.freeTime = zeroed(scr.freeTime, sc.Machines)
			st := &runState{runBase: runBase{sc: sc, truth: costs, dec: d.dec, policy: policy, scr: scr}}
			differs := 0
			for trial := 0; trial < 200; trial++ {
				now := src.Uniform(0, 500)
				for m := range scr.freeTime {
					scr.freeTime[m] = src.Uniform(0, 1000)
					switch {
					case trial%10 == 9 || src.Bool(0.1):
						scr.freeTime[m] = sched.Masked()
					case src.Bool(0.2):
						scr.freeTime[m] = now // provoke max(ft, now) ties
					}
				}
				if d.dec == view {
					// A completion moves what the model believes.
					if err := view.noteFinish(src.Intn(sc.Tasks), src.Intn(sc.Machines)); err != nil {
						t.Fatal(err)
					}
				}
				r := src.Intn(sc.Tasks)
				_, row, err := d.dec.CostRows(r)
				if err != nil {
					t.Fatal(err)
				}
				for s, tc := range row {
					if tc != costs.tcRow(r)[s] {
						differs++
					}
				}
				got := st.fusedPick(r, now, row)
				want, err := h.AssignOne(d.dec, policy, r, st.availability(now))
				if err != nil {
					if trial%10 != 9 {
						t.Fatalf("%s/%s trial %d: %v", d.name, policy.Name, trial, err)
					}
					want.Machine = -1
				}
				if got != want.Machine {
					t.Fatalf("%s/%s trial %d: fused picked %d, AssignOne picked %d",
						d.name, policy.Name, trial, got, want.Machine)
				}
			}
			if d.dec != costs && differs == 0 {
				t.Fatalf("%s/%s: the decision rows never differed from the truth", d.name, policy.Name)
			}
		}
	}
}
