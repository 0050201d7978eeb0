package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// assertCostsMatchWorkload checks the factored table cell by cell against
// the workload's own per-machine pricing.
func assertCostsMatchWorkload(t *testing.T, label string, w *workload.Workload) {
	t.Helper()
	c, err := newWorkloadCosts(w)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	idx := c.MachineIndex()
	for r, req := range w.Requests {
		eec, tcs := c.CostRows(r)
		for m := 0; m < w.Spec.Machines; m++ {
			want, err := w.TrustCost(req, m)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := c.TrustCost(r, m)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got != want || tcs[idx[m]] != want {
				t.Fatalf("%s: TC(%d,%d) = %d (row view %d), workload prices %d", label, r, m, got, tcs[idx[m]], want)
			}
			if eec[m] != c.EEC(r, m) {
				t.Fatalf("%s: EEC row view differs at (%d,%d)", label, r, m)
			}
		}
	}
}

// reloadShuffled passes w through Save/Load with machine_rd permuted and
// one more resource domain declared than any machine or table row uses.
func reloadShuffled(t *testing.T, src *rng.Source, w *workload.Workload) *workload.Workload {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	mrd := doc["machine_rd"].([]any)
	src.Shuffle(len(mrd), func(i, j int) { mrd[i], mrd[j] = mrd[j], mrd[i] })
	doc["num_rds"] = doc["num_rds"].(float64) + 1
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := workload.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestFactoredCostsMatchWorkload is the property behind the RD-indexed
// table: for any workload — generated, reloaded with another RD layout,
// or carrying an activity index no fixed-width set encoding would hold —
// the factored lookup equals Workload.TrustCost in every cell.
func TestFactoredCostsMatchWorkload(t *testing.T) {
	src := rng.New(1702)
	for trial := 0; trial < 40; trial++ {
		sc := PaperScenario("mct", 1+src.Intn(60), workload.Inconsistent)
		sc.Machines = 1 + src.Intn(23)
		w, err := workload.NewWorkload(src, sc.WorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		assertCostsMatchWorkload(t, "generated", w)
		assertCostsMatchWorkload(t, "reloaded", reloadShuffled(t, src, w))

		// Activity indices are unbounded; the profile key holds any.
		const wide = grid.Activity(64 + 7)
		for cd := 0; cd < w.NumCDs; cd++ {
			for rd := 0; rd < w.NumRDs; rd++ {
				if err := w.Table.Set(grid.DomainID(cd), grid.DomainID(rd), wide, grid.TrustLevel(src.IntRange(1, 5))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < 2; k++ {
			r := &w.Requests[src.Intn(len(w.Requests))]
			r.ToA = grid.MustToA(append([]grid.Activity{wide}, r.ToA.Activities...)...)
		}
		assertCostsMatchWorkload(t, "wide activity", w)
	}
}

// TestProfileKey pins what shares a row: the same (CD, RTL, ordered ToA),
// whatever the activity indices.  A reordered ToA prices the same but is
// another context to a trust model, so it is another profile.
func TestProfileKey(t *testing.T) {
	sc := PaperScenario("mct", 4, workload.Inconsistent)
	sc.Machines = 5
	w := mustWorkload(t, sc, 3)
	const wide = grid.Activity(64 + 7)
	for rd := 0; rd < w.NumRDs; rd++ {
		if err := w.Table.Set(0, grid.DomainID(rd), wide, grid.LevelC); err != nil {
			t.Fatal(err)
		}
	}
	for i, acts := range [][]grid.Activity{{wide, 1}, {wide, 1}, {1, wide}, {wide}} {
		w.Requests[i].CD, w.Requests[i].ClientRTL = 0, grid.LevelD
		w.Requests[i].ToA = grid.MustToA(acts...)
	}
	c, err := newWorkloadCosts(w)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.rowOf, []int32{0, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("profiles %v, want %v", got, want)
	}
	if got, want := c.rowSize, []int32{2, 1, 1}; !slices.Equal(got, want) {
		t.Fatalf("profile sizes %v, want %v", got, want)
	}
	if !slices.Equal(c.tcRow(0), c.tcRow(2)) {
		t.Fatalf("reordered ToA prices %v, original %v", c.tcRow(2), c.tcRow(0))
	}
}

// TestFactoredCostsErrors pins what the build rejects and what it names.
func TestFactoredCostsErrors(t *testing.T) {
	sc := PaperScenario("mct", 12, workload.Inconsistent)
	sc.Machines = 7
	sc.NumCDs, sc.NumRDs = 2, 3
	w := mustWorkload(t, sc, 9)

	// Machines 2 and 5 form the third slot; move them to a domain with
	// no table rows.  The build must fail on the first request, naming
	// the slot's first machine, exactly as the per-machine loop did.
	gap := *w
	gap.MachineRD = append([]grid.DomainID(nil), w.MachineRD...)
	gap.MachineRD[2], gap.MachineRD[5] = 9, 9
	gap.ResourceRTL = map[grid.DomainID]grid.TrustLevel{0: 1, 1: 1, 9: 1}
	_, err := newWorkloadCosts(&gap)
	if err == nil || !strings.Contains(err.Error(), "request 0 on machine 2") {
		t.Fatalf("table gap for a used RD: got %v, want an error naming request 0 on machine 2", err)
	}
	if _, werr := gap.TrustCost(gap.Requests[0], 2); werr == nil {
		t.Fatal("workload prices the gap the adapter rejected")
	}

	// The same gap for a domain no machine belongs to is not an error.
	unused := *w
	unused.NumRDs = 10
	assertCostsMatchWorkload(t, "unused RD", &unused)

	for _, n := range []int{sc.Machines - 1, sc.Machines + 1} {
		short := *w
		short.MachineRD = make([]grid.DomainID, n)
		if _, err := newWorkloadCosts(&short); err == nil {
			t.Errorf("accepted %d machine_rd entries for %d machines", n, sc.Machines)
		}
		if _, err := Run(sc, &short, sched.MustTrustAware(15)); err == nil {
			t.Errorf("Run accepted %d machine_rd entries for %d machines", n, sc.Machines)
		}
	}

	// With rows for domain 9 the layout prices and runs, but a fault plan
	// draws its adversaries over the workload's NumRDs domains: a machine
	// outside them is an error, not an index panic.
	for cd := 0; cd < w.NumCDs; cd++ {
		for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
			if err := w.Table.Set(grid.DomainID(cd), 9, a, grid.LevelC); err != nil {
				t.Fatal(err)
			}
		}
	}
	assertCostsMatchWorkload(t, "sparse RD ids", &gap)
	adv := sc
	adv.Fault = fault.Plan{AdversaryFraction: 1}
	if _, err := Run(adv, &gap, sched.MustTrustAware(15)); err == nil || !strings.Contains(err.Error(), "resource domain 9") {
		t.Errorf("adversary run over a machine outside the workload's resource domains: got %v", err)
	}
}

// TestRunAllocationBudget pins the expansion-free layout: no trust-cost
// slice of length Machines may be built per profile or per request, so
// one cold Run of the 2048-task x 1024-machine MCT leg stays under 1 MB
// (a single expanded row per profile alone is 6 MB).
func TestRunAllocationBudget(t *testing.T) {
	sc := PaperScenario("mct", 2048, workload.Inconsistent)
	sc.Machines = 1024
	sc.NumCDs, sc.NumRDs = 4, 4
	w := mustWorkload(t, sc, 2024)
	policy := sched.MustTrustAware(sc.TCWeight)
	if _, err := Run(sc, w, policy); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(sc, w, policy); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one Run allocated %d bytes", got)
	if got >= 1<<20 {
		t.Fatalf("one Run allocated %d bytes, budget is 1 MB", got)
	}
}
