package sim

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
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
		eec, tcs, err := c.CostRows(r)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for m := 0; m < w.Spec.Machines; m++ {
			want, err := w.TrustCost(req, m)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := tcs[idx[m]]; got != want {
				t.Fatalf("%s: TC(%d,%d) = %d, workload prices %d", label, r, m, got, want)
			}
			if eec[m] != w.EEC.At(req.TaskIndex, m) {
				t.Fatalf("%s: EEC row differs at (%d,%d)", label, r, m)
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

	// With no machine no slot prices, so nothing could reject a bad
	// client RTL: the build refuses the workload.
	none := *w
	none.Spec.Machines, none.MachineRD = 0, nil
	if _, err := newWorkloadCosts(&none); err == nil || !strings.Contains(err.Error(), "no machines") {
		t.Errorf("workload with no machines: got %v, want an error", err)
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

// TestCostsBuildAllocations pins the build's allocations on the
// repository benchmark's 2048-request shape and the paper's 50 requests:
// the adapter, one carve per element type, slotRTL and the TC rows.  A
// list whose piece is sized short of what the build appends moves out
// by append, and shows here as one more.
func TestCostsBuildAllocations(t *testing.T) {
	for _, size := range []struct{ requests, machines int }{{2048, 64}, {50, 5}} {
		sc := PaperScenario("mct", size.requests, workload.Inconsistent)
		sc.Machines = size.machines
		sc.NumCDs, sc.NumRDs = 4, 4
		w := mustWorkload(t, sc, 1)
		got := testing.AllocsPerRun(20, func() {
			if _, err := newWorkloadCosts(w); err != nil {
				t.Fatal(err)
			}
		})
		if got != 7 {
			t.Errorf("%d requests on %d machines: %v allocations per build, want 7", size.requests, size.machines, got)
		}
	}
}

// referenceWorkloadCosts is newWorkloadCosts as it was when every (profile,
// slot) cell was priced through Workload.TrustCostRD, kept as the oracle
// for the build: the same table, or the same error for the same first
// request and slot.
func referenceWorkloadCosts(w *workload.Workload) (*workloadCosts, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	nm := w.Spec.Machines
	if len(w.MachineRD) != nm {
		return nil, fmt.Errorf("sim: workload maps %d machines to resource domains, spec has %d", len(w.MachineRD), nm)
	}
	c := &workloadCosts{w: w, rdOf: make([]int32, nm), rowOf: make([]int32, len(w.Requests))}
	slotOf := make(map[grid.DomainID]int32)
	for m, rd := range w.MachineRD {
		s, ok := slotOf[rd]
		if !ok {
			s = int32(len(c.slotRD))
			slotOf[rd] = s
			c.slotRD = append(c.slotRD, rd)
			c.slotAt = append(c.slotAt, int32(m))
			c.slotLen = append(c.slotLen, 0)
		}
		c.rdOf[m] = s
		c.slotLen[s]++
	}
	seen := make(map[string]int32)
	ctxs := make(map[string]int32)   // ordered ToA -> context, as modelView once keyed them
	askers := make(map[string]int32) // (CD, ordered ToA) -> asker
	var key []byte
	for i := range w.Requests {
		r := w.Requests[i]
		key = binary.AppendVarint(key[:0], int64(r.CD))
		key = binary.AppendVarint(key, int64(r.ClientRTL))
		for _, a := range r.ToA.Activities {
			key = binary.AppendVarint(key, int64(a))
		}
		j, dup := seen[string(key)]
		if !dup {
			for s, rd := range c.slotRD {
				v, err := w.TrustCostRD(r, rd)
				if err != nil {
					return nil, fmt.Errorf("sim: trust cost for request %d on machine %d: %w", i, c.slotAt[s], err)
				}
				c.tc = append(c.tc, v)
			}
			j = int32(len(c.rowReq))
			seen[string(key)] = j
			c.rowReq = append(c.rowReq, int32(i))
			c.rowSize = append(c.rowSize, 0)
			key = key[:0]
			for _, a := range r.ToA.Activities {
				key = binary.AppendVarint(key, int64(a))
			}
			ctx, ok := ctxs[string(key)]
			if !ok {
				ctx = int32(len(ctxs))
				ctxs[string(key)] = ctx
				c.ctxReq = append(c.ctxReq, int32(i))
			}
			c.ctxOf = append(c.ctxOf, ctx)
			key = binary.AppendVarint(key, int64(r.CD))
			a, ok := askers[string(key)]
			if !ok {
				a = int32(len(askers))
				askers[string(key)] = a
				c.askCD = append(c.askCD, r.CD)
				c.askCtx = append(c.askCtx, ctx)
				for _, rd := range c.slotRD {
					otl, err := w.Table.OTL(r.CD, rd, r.ToA)
					if err != nil {
						return nil, fmt.Errorf("sim: trust cost for request %d: OTL priced, then failed: %w", i, err)
					}
					c.otl = append(c.otl, int8(otl))
				}
			}
			c.askOf = append(c.askOf, a)
		}
		c.rowOf[i] = j
		c.rowSize[j]++
	}
	return c, nil
}

// costsKeeps are the hash masks the build is checked under: every bit,
// then few enough that keys collide.
var costsKeeps = []uint64{^uint64(0), 0, 1, 0xff}

// checkCostsBuild compares the table build, under each of costsKeeps,
// with the reference on one workload: every field of the table, or the
// error text.  Every TC the build memoised must be TrustCostWith's.
func checkCostsBuild(t *testing.T, label string, w *workload.Workload) (failed bool) {
	t.Helper()
	want, werr := referenceWorkloadCosts(w)
	for _, keep := range costsKeeps {
		got, gerr := buildCosts(w, keep)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("%s (keep %#x): build error %v, reference %v", label, keep, gerr, werr)
		}
		if gerr != nil {
			failed = true
			continue
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"rdOf", got.rdOf, want.rdOf}, {"slotRD", got.slotRD, want.slotRD},
			{"slotAt", got.slotAt, want.slotAt}, {"slotLen", got.slotLen, want.slotLen},
			{"tc", got.tc, want.tc}, {"rowOf", got.rowOf, want.rowOf},
			{"rowReq", got.rowReq, want.rowReq}, {"rowSize", got.rowSize, want.rowSize},
			{"ctxOf", got.ctxOf, want.ctxOf}, {"ctxReq", got.ctxReq, want.ctxReq},
			{"askOf", got.askOf, want.askOf}, {"askCD", got.askCD, want.askCD},
			{"askCtx", got.askCtx, want.askCtx}, {"otl", got.otl, want.otl},
		} {
			if !reflect.DeepEqual(f.got, f.want) && (reflect.ValueOf(f.got).Len() > 0 || reflect.ValueOf(f.want).Len() > 0) {
				t.Fatalf("%s (keep %#x): %s = %v, reference %v", label, keep, f.name, f.got, f.want)
			}
		}
		for k, v := range got.tcAt {
			if v < 0 {
				continue
			}
			s, rtl, otl := k/tcSpan, grid.LevelA+grid.TrustLevel(k%tcSpan/int(grid.MaxOfferable)), grid.MinOfferable+grid.TrustLevel(k%int(grid.MaxOfferable))
			if tc, err := grid.TrustCostWith(w.Spec.ETSRule, rtl, got.slotRTL[s], otl); err != nil || tc != int(v) {
				t.Fatalf("%s (keep %#x): memoised TC(slot %d, %v, %v) = %d, TrustCostWith gives %d, %v", label, keep, s, rtl, otl, v, tc, err)
			}
		}
	}
	return failed
}

// TestCostsBuildMatchesReference holds the table build to the per-cell
// reference on generated workloads and on broken ones: table entries
// removed at random (a gap may fall on any activity of any profile on any
// slot), a resource domain without an RTL, an invalid client RTL, an
// empty ToA and a client domain outside the workload's.  Activities past
// the dense range, with table rows, must price as the reference does.
func TestCostsBuildMatchesReference(t *testing.T) {
	src := rng.New(3232)
	errs := 0
	for trial := 0; trial < 60; trial++ {
		sc := PaperScenario("mct", 1+src.Intn(80), workload.Inconsistent)
		sc.Machines = 1 + src.Intn(12)
		sc.NumCDs, sc.NumRDs = 1+src.Intn(4), 1+src.Intn(4)
		w, err := workload.NewWorkload(src, sc.WorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		checkCostsBuild(t, "generated", w)

		broken := *w
		broken.Requests = slices.Clone(w.Requests)
		broken.ResourceRTL = map[grid.DomainID]grid.TrustLevel{}
		for rd, rtl := range w.ResourceRTL {
			broken.ResourceRTL[rd] = rtl
		}
		var kept []grid.TableEntry
		for _, e := range w.Table.Replica().Since(0) {
			if !src.Bool(0.02) {
				kept = append(kept, e)
			}
		}
		broken.Table = grid.NewTrustTable()
		if err := broken.Table.Restore(kept, 1); err != nil {
			t.Fatal(err)
		}
		r := &broken.Requests[src.Intn(len(broken.Requests))]
		switch trial % 5 {
		case 1:
			delete(broken.ResourceRTL, broken.MachineRD[src.Intn(len(broken.MachineRD))])
		case 2:
			r.ClientRTL = grid.TrustLevel(9)
		case 3:
			r.ToA = grid.ToA{}
		case 4:
			r.CD = grid.DomainID(broken.NumCDs + 3)
		}
		if trial%2 == 0 {
			far := grid.Activity(grid.NumBuiltinActivities + 5) // past the activities the build reads densely
			for _, e := range kept {
				if err := broken.Table.Set(e.CD, e.RD, far, e.Level); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 3; k++ {
				q := &broken.Requests[src.Intn(len(broken.Requests))]
				q.ToA = grid.MustToA(append([]grid.Activity{far}, q.ToA.Activities...)...)
			}
		}
		if checkCostsBuild(t, fmt.Sprintf("broken %d", trial), &broken) {
			errs++
		}
	}
	if errs < 30 {
		t.Fatalf("only %d of 60 broken workloads failed to build; the gaps are too sparse to test the error path", errs)
	}
}

// TestChainsTellCollidingKeysApart puts every key on one hash (keep 0),
// then on two: find must still number distinct keys in order of first
// appearance and find each again, through the table's growth, as
// newWorkloadCosts relies on for two ToAs or askers whose hashes collide.
func TestChainsTellCollidingKeysApart(t *testing.T) {
	keys := []string{"a", "b", "a", "c", "b", "c", "d", "a", "e", "f", "g", "h", "i", "j", "a", "j"}
	for _, keep := range []uint64{0, 1, ^uint64(0)} {
		in := interner{keep: keep}
		cells, hash := in.pieces(1)
		carve(cells)
		carve(hash)
		var first []string
		for i, key := range keys {
			same := func(k int32) bool { return first[k] == key }
			k, added := in.find(uint64(key[0]), same)
			if added {
				first = append(first, key)
			}
			if want := int32(slices.Index(first, key)); k != want || added != !slices.Contains(keys[:i], key) {
				t.Fatalf("keep %#x, key %d (%q): find = %d, %v; want %d", keep, i, key, k, added, want)
			}
		}
		for k, key := range first {
			if got, added := in.find(uint64(key[0]), func(k int32) bool { return first[k] == key }); added || got != int32(k) {
				t.Fatalf("keep %#x: find(%q) again = %d, %v; want %d", keep, key, got, added, k)
			}
		}
	}
}

// FuzzCostsBuild holds the table build to the string-keyed reference on
// small generated workloads edited by the input, two bytes an edit:
// repeated, reordered and wide activities (past the built-ins, with and
// without table rows), empty ToAs, invalid client RTLs, CDs past NumCDs
// with and without table rows, table gaps, and copied (CD, ToA) pairs.
// checkCostsBuild runs each under hash masks that force collisions.
func FuzzCostsBuild(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), []byte{0, 1, 1, 2, 2, 4, 7, 9})
	f.Add(uint64(3), []byte{5, 4, 5, 0, 4, 3, 3, 1})
	f.Add(uint64(4), []byte{2, 3, 6, 0, 7, 2, 1, 5, 5, 6})
	f.Fuzz(func(t *testing.T, seed uint64, edits []byte) {
		src := rng.New(seed)
		sc := PaperScenario("mct", 1+src.Intn(40), workload.Inconsistent)
		sc.Machines = 1 + src.Intn(8)
		sc.NumCDs, sc.NumRDs = 1+src.Intn(3), 1+src.Intn(3)
		w, err := workload.NewWorkload(src, sc.WorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		n := len(w.Requests)
		for ; len(edits) >= 2; edits = edits[2:] {
			op, arg := edits[0]%8, int(edits[1])
			r := &w.Requests[arg%n]
			acts := slices.Clone(r.ToA.Activities)
			switch op {
			case 0: // a repeated activity
				if len(acts) > 0 {
					r.ToA = grid.ToA{Activities: append(acts, acts[arg%len(acts)])}
				}
			case 1: // reordered activities
				slices.Reverse(acts)
				r.ToA = grid.ToA{Activities: acts}
			case 2: // an activity past the built-ins, with rows when arg is even
				far := grid.Activity(int(grid.NumBuiltinActivities) + arg%3)
				if arg%2 == 0 {
					for cd := 0; cd < w.NumCDs; cd++ {
						for rd := 0; rd < w.NumRDs; rd++ {
							if err := w.Table.Set(grid.DomainID(cd), grid.DomainID(rd), far, grid.TrustLevel(1+arg%5)); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				r.ToA = grid.ToA{Activities: append([]grid.Activity{far}, acts...)}
			case 3: // an empty ToA
				r.ToA = grid.ToA{}
			case 4: // an invalid client RTL
				r.ClientRTL = []grid.TrustLevel{grid.LevelNone, grid.LevelF + 1, -1, 40}[arg%4]
			case 5: // a CD past NumCDs, with CD 0's rows when arg&4 is set
				cd := grid.DomainID(w.NumCDs + arg%2)
				if arg&4 != 0 {
					for _, e := range w.Table.Replica().Since(0) {
						if e.CD == 0 {
							if err := w.Table.Set(cd, e.RD, e.Activity, e.Level); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				r.CD = cd
			case 6: // a gap in the table
				kept := w.Table.Replica().Since(0)
				if len(kept) > 0 {
					kept = slices.Delete(kept, arg%len(kept), arg%len(kept)+1)
					w.Table = grid.NewTrustTable()
					if err := w.Table.Restore(kept, 1); err != nil {
						t.Fatal(err)
					}
				}
			default: // another request's CD and ToA
				q := &w.Requests[(arg/3)%n]
				r.CD, r.ToA = q.CD, grid.ToA{Activities: slices.Clone(q.ToA.Activities)}
			}
		}
		checkCostsBuild(t, "fuzzed", w)
	})
}
