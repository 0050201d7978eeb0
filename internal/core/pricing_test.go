package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/gridgen"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
)

// genTopology draws a gridgen topology of the given size.  With spare it
// appends one more grid domain whose resource domain supports everything
// and owns no machine: the RD the decision path must never price.
func genTopology(tb testing.TB, seed uint64, domains int, spare bool) *grid.Topology {
	tb.Helper()
	top, err := gridgen.Generate(rng.New(seed), gridgen.Spec{GridDomains: domains})
	if err != nil {
		tb.Fatal(err)
	}
	if !spare {
		return top
	}
	id := grid.DomainID(domains)
	rd := &grid.ResourceDomain{ID: id, Owner: "spare", RTL: grid.LevelC,
		Supported: map[grid.Activity]grid.TrustLevel{}}
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		rd.Supported[a] = grid.LevelC
	}
	top, err = grid.NewTopology(append(top.Domains, &grid.GridDomain{ID: id, Name: "spare", RD: rd})...)
	if err != nil {
		tb.Fatal(err)
	}
	return top
}

// lowerOddRDs is a fuser that caps what odd resource domains offer.
type lowerOddRDs struct{}

func (lowerOddRDs) FuseOTL(_, rd grid.DomainID, _ grid.ToA, local grid.TrustLevel) grid.TrustLevel {
	if rd%2 == 1 {
		return min(local, grid.LevelA+grid.TrustLevel(rd%3))
	}
	return local
}

// blindTo is a misbehaving fuser: it returns no level at all for one RD.
type blindTo grid.DomainID

func (b blindTo) FuseOTL(_, rd grid.DomainID, _ grid.ToA, local grid.TrustLevel) grid.TrustLevel {
	if rd == grid.DomainID(b) {
		return grid.LevelNone
	}
	return local
}

// deleteEntry removes one table entry (tables only grow through their own
// API, so a gap is a restore without it).
func deleteEntry(t *testing.T, table *grid.TrustTable, cd, rd grid.DomainID, act grid.Activity) {
	t.Helper()
	var kept []grid.TableEntry
	for _, e := range table.Replica().Since(0) {
		if e.CD != cd || e.RD != rd || e.Activity != act {
			kept = append(kept, e)
		}
	}
	if len(kept) != table.Replica().Len()-1 {
		t.Fatalf("no entry (%d,%d,%v) to delete", cd, rd, act)
	}
	if err := table.Restore(kept, table.Replica().Version()+1); err != nil {
		t.Fatal(err)
	}
}

// randomTask draws a task the way a client might send it: mostly valid,
// 1-4 activities, now and then an activity no RD supports.
func randomTask(src *rng.Source, top *grid.Topology) Task {
	clients := top.Clients()
	acts := make([]grid.Activity, src.IntRange(1, 4))
	for i := range acts {
		acts[i] = grid.Activity(src.Intn(grid.NumBuiltinActivities))
	}
	if src.Bool(0.05) {
		acts[0] = grid.Activity(7) // outside every RD's vocabulary
	}
	eec := make([]float64, len(top.Machines()))
	for m := range eec {
		eec[m] = src.Uniform(1, 100)
	}
	return Task{
		Client: clients[src.Intn(len(clients))].ID,
		ToA:    grid.ToA{Activities: acts},
		RTL:    grid.TrustLevel(src.IntRange(int(grid.MinRequirable), int(grid.MaxRequirable))),
		EEC:    eec,
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func samePlacement(a, b *Placement) bool {
	return (a == nil) == (b == nil) && (a == nil || *a == *b)
}

// TestSubmitMatchesPerMachineReference drives the production decision path
// and the per-machine snapshot reference (reference_test.go) through the
// same request sequence on twin TRMSs and requires every placement field
// and every error text to agree: 1-16 domains, atomic and composed ToAs,
// ToAs some or all RDs do not support, a table gap on a used RD and on a
// machine-less one, with and without a fuser.  Every immediate heuristic
// runs through Submit and every deterministic batch heuristic through
// SubmitBatch, since each reads the decision's costs its own way.
func TestSubmitMatchesPerMachineReference(t *testing.T) {
	type variant struct {
		name  string
		fuser OTLFuser
		gap   string // "", "used" or "spare"
	}
	variants := []variant{
		{name: "plain"},
		{name: "fused", fuser: lowerOddRDs{}},
		{name: "gap-used", gap: "used"},
		{name: "gap-used-fused", gap: "used", fuser: lowerOddRDs{}},
		{name: "gap-spare", gap: "spare"},
	}
	// What the drawn requests exercised, so the comparison cannot pass by
	// never reaching a case: error texts by kind, placed tasks, and
	// decisions placed while some machine's RD did not support a task
	// (the machines the decision prices at +Inf).
	seen := map[string]int{}
	note := func(err error, placed int, partial bool) {
		switch {
		case err == nil:
			seen["placed"] += placed
			if partial {
				seen["partial"]++
			}
		case strings.Contains(err.Error(), "no trust entry"):
			seen["gap"]++
		case strings.Contains(err.Error(), "no resource domain supports"):
			seen["unsupported"]++
		case strings.Contains(err.Error(), "unknown client"):
			seen["invalid"]++
		}
	}
	// Immediate heuristics by name: SA keeps state, so each TRMS of a pair
	// gets its own.
	imms := []string{"mct", "met", "olb", "kpb", "sa"}
	batches := []sched.Batch{sched.MinMin{}, sched.Sufferage{}, sched.MaxMin{}, sched.Duplex{}, sched.MinMin{}}
	for domains := 1; domains <= 16; domains++ {
		for _, v := range variants {
			domains, v := domains, v
			t.Run(fmt.Sprintf("domains=%d/%s", domains, v.name), func(t *testing.T) {
				for _, imm := range imms {
					imm := imm
					t.Run(imm, func(t *testing.T) {
						matchReference(t, domains, v.fuser, v.gap, imm, batches, note)
					})
				}
			})
		}
	}
	for _, kind := range []string{"placed", "partial", "gap", "unsupported", "invalid"} {
		if seen[kind] == 0 {
			t.Errorf("no request exercised the %q case: %v", kind, seen)
		}
	}
	t.Logf("cases exercised: %v", seen)
}

// matchReference runs one comparison of TestSubmitMatchesPerMachineReference:
// twin TRMSs on a drawn topology of the given size, 40 submits under the
// named immediate heuristic, then one meta-request per batch heuristic, the
// last with an invalid task behind priced ones.
func matchReference(t *testing.T, domains int, fuser OTLFuser, gap, imm string, batches []sched.Batch, note func(error, int, bool)) {
	top := genTopology(t, uint64(100+domains), domains, true)
	twin := func() *TRMS {
		h, err := sched.ImmediateByName(imm)
		if err != nil {
			t.Fatal(err)
		}
		return newTRMS(t, Config{Topology: top, ETSRule: grid.ETSLinear, Heuristic: h})
	}
	got, want := twin(), twin()
	// partial reports whether some machine's RD does not support a task.
	partial := func(tasks ...Task) bool {
		for _, task := range tasks {
			for _, m := range top.Machines() {
				if rd, _ := top.MachineRD(m.ID); !rd.Supports(task.ToA) {
					return true
				}
			}
		}
		return false
	}

	// Both tables get the same drawn levels (New seeds a flat C).
	src := rng.New(uint64(domains))
	for _, e := range got.Table().Replica().Since(0) {
		tl := grid.TrustLevel(src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
		for _, trms := range []*TRMS{got, want} {
			if err := trms.Table().Set(e.CD, e.RD, e.Activity, tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	if gap != "" {
		rds := top.ResourceDomains()
		rd := rds[len(rds)-1] // the spare
		if gap == "used" {
			rd = rds[src.Intn(len(rds)-1)]
		}
		var act grid.Activity
		for act = 0; ; act++ {
			if _, ok := rd.Supported[act]; ok {
				break
			}
		}
		cd := top.ClientDomains()[src.Intn(len(top.ClientDomains()))].ID
		deleteEntry(t, got.Table(), cd, rd.ID, act)
		deleteEntry(t, want.Table(), cd, rd.ID, act)
	}
	if fuser != nil {
		got.SetOTLFuser(fuser)
		want.SetOTLFuser(fuser)
	}

	now := 0.0
	for i := 0; i < 40; i++ {
		task := randomTask(src, top)
		now += src.Uniform(0, 5)
		p, err := got.Submit(task, now)
		q, rerr := refSubmit(want, task, now)
		if errText(err) != errText(rerr) {
			t.Fatalf("submit %d: error %q, reference %q", i, errText(err), errText(rerr))
		}
		if !samePlacement(p, q) {
			t.Fatalf("submit %d: placement %+v, reference %+v", i, p, q)
		}
		note(err, 1, partial(task))
	}
	for i, h := range batches {
		tasks := make([]Task, src.IntRange(1, 6))
		for j := range tasks {
			tasks[j] = randomTask(src, top)
		}
		if i == len(batches)-1 && len(tasks) > 1 {
			// An invalid task behind priced ones: whichever
			// fails first in task order must be reported.
			tasks[len(tasks)-1].Client = 9999
		}
		now += src.Uniform(0, 5)
		ps, err := got.SubmitBatch(tasks, h, now)
		qs, rerr := refSubmitBatch(want, tasks, h, now)
		if errText(err) != errText(rerr) {
			t.Fatalf("batch %d: error %q, reference %q", i, errText(err), errText(rerr))
		}
		if len(ps) != len(qs) {
			t.Fatalf("batch %d: %d placements, reference %d", i, len(ps), len(qs))
		}
		for j := range ps {
			if !samePlacement(ps[j], qs[j]) {
				t.Fatalf("batch %d task %d: placement %+v, reference %+v", i, j, ps[j], qs[j])
			}
		}
		note(err, len(ps), partial(tasks...))
	}
	gp, gft := got.SchedulerState()
	wp, wft := want.SchedulerState()
	if gp != wp || fmt.Sprint(gft) != fmt.Sprint(wft) {
		t.Fatalf("scheduler state diverged: placed %d vs %d\n%v\n%v", gp, wp, gft, wft)
	}
}

// TestPricingErrorOrder pins which failure a decision reports when a row
// has two: cells are costed in first-machine order, so an RD the fuser
// breaks is reported ahead of a table gap on a later RD, and the gap ahead
// of a broken RD behind it — as the per-machine scan did.
func TestPricingErrorOrder(t *testing.T) {
	top := genTopology(t, 7, 6, false)
	rds := top.ResourceDomains()
	act := grid.ActCompute
	var hosts []*grid.ResourceDomain
	for _, rd := range rds {
		if _, ok := rd.Supported[act]; ok {
			hosts = append(hosts, rd)
		}
	}
	if len(hosts) < 2 {
		t.Fatalf("topology has %d RDs supporting %v, need 2", len(hosts), act)
	}
	first, last := hosts[0], hosts[len(hosts)-1]
	cd := top.ClientDomains()[0]
	task := Task{Client: cd.Clients[0].ID, ToA: grid.MustToA(act), RTL: grid.LevelC,
		EEC: make([]float64, len(top.Machines()))}

	for _, c := range []struct {
		name        string
		blind, hole *grid.ResourceDomain
	}{
		{"fuser-before-gap", first, last},
		{"gap-before-fuser", last, first},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := newTRMS(t, Config{Topology: top})
			want := newTRMS(t, Config{Topology: top})
			for _, trms := range []*TRMS{got, want} {
				deleteEntry(t, trms.Table(), cd.ID, c.hole.ID, act)
				trms.SetOTLFuser(blindTo(c.blind.ID))
			}
			_, err := got.Submit(task, 0)
			_, rerr := refSubmit(want, task, 0)
			if err == nil || errText(err) != errText(rerr) {
				t.Fatalf("submit error %q, reference %q", errText(err), errText(rerr))
			}
			_, err = got.SubmitBatch([]Task{task, task}, sched.MinMin{}, 0)
			_, rerr = refSubmitBatch(want, []Task{task, task}, sched.MinMin{}, 0)
			if err == nil || errText(err) != errText(rerr) {
				t.Fatalf("batch error %q, reference %q", errText(err), errText(rerr))
			}
		})
	}
}

// TestSubmitConcurrentWithTableWrites prices decisions while the table
// changes under them.  Whatever a decision read, it must have read
// consistently: the placement's trust cost is the cost of the offered
// level the placement reports.  Run under -race.
func TestSubmitConcurrentWithTableWrites(t *testing.T) {
	top := genTopology(t, 11, 8, false)
	trms := newTRMS(t, Config{Topology: top, ETSRule: grid.ETSLinear})
	trms.SetOTLFuser(lowerOddRDs{})
	rdRTL := map[grid.DomainID]grid.TrustLevel{}
	for _, rd := range top.ResourceDomains() {
		rdRTL[rd.ID] = rd.RTL
	}
	check := func(task Task, p *Placement) {
		tc, err := grid.TrustCostWith(grid.ETSLinear, task.RTL, rdRTL[p.RD], p.OTL)
		if err != nil || tc != p.TC {
			t.Errorf("placement %+v: TC %d, but its OTL prices at %d (%v)", p, p.TC, tc, err)
		}
	}

	entries := trms.Table().Replica().Since(0)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		src := rng.New(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			e := entries[src.Intn(len(entries))]
			tl := grid.TrustLevel(src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
			if err := trms.Table().Set(e.CD, e.RD, e.Activity, tl); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var submitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		submitters.Add(1)
		go func(g int) {
			defer submitters.Done()
			src := rng.New(uint64(10 + g))
			for i := 0; i < 200; i++ {
				if g == 0 && i%4 == 0 {
					tasks := []Task{randomTask(src, top), randomTask(src, top), randomTask(src, top)}
					ps, err := trms.SubmitBatch(tasks, sched.MinMin{}, float64(i))
					if err != nil {
						continue // a drawn ToA nobody supports
					}
					for j, p := range ps {
						check(tasks[j], p)
					}
					continue
				}
				task := randomTask(src, top)
				if p, err := trms.Submit(task, float64(i)); err == nil {
					check(task, p)
				}
			}
		}(g)
	}
	submitters.Wait()
	close(stop)
	writer.Wait()
	if trms.Placed() == 0 {
		t.Fatal("no submit was placed")
	}
}

// benchTRMS builds a TRMS over a gridgen grid of the given size and a
// task every submit of which is placeable (the bench harness's recipe:
// the activity most RDs support).
func benchTRMS(tb testing.TB, domains int) (*TRMS, Task) {
	tb.Helper()
	top := genTopology(tb, 42, domains, false)
	trms, err := New(Config{Topology: top})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(trms.Close)
	best, bestN := grid.ActCompute, -1
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		n := 0
		for _, rd := range top.ResourceDomains() {
			if _, ok := rd.Supported[a]; ok {
				n++
			}
		}
		if n > bestN {
			best, bestN = a, n
		}
	}
	eec := make([]float64, len(top.Machines()))
	for m := range eec {
		eec[m] = float64(10 + m%7)
	}
	return trms, Task{Client: top.Clients()[0].ID, ToA: grid.MustToA(best), RTL: grid.LevelD, EEC: eec}
}

// TestSubmitCostIndependentOfTableSize: a decision reads one cell per
// resource domain and copies nothing, so what it allocates does not grow
// with the table (quadratic in domains), and is no more than the
// snapshot path allocated on the smallest grid.
func TestSubmitCostIndependentOfTableSize(t *testing.T) {
	// Measured at the parent commit with this same task: 9 at 3 and at 12
	// domains, 39 at 48 (the bench's traced count, which also sees the
	// agents, read 12 and 15).
	const snapshotPathAllocsAt3 = 9
	allocs := func(domains int) float64 {
		trms, task := benchTRMS(t, domains)
		return testing.AllocsPerRun(200, func() {
			if _, err := trms.Submit(task, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(3), allocs(24)
	if small != large {
		t.Errorf("Submit allocates %v at 3 domains and %v at 24", small, large)
	}
	if small > snapshotPathAllocsAt3 {
		t.Errorf("Submit allocates %v at 3 domains, the snapshot path allocated %d", small, snapshotPathAllocsAt3)
	}
}

var benchPlacement *Placement

func BenchmarkSubmit(b *testing.B) {
	for _, domains := range []int{3, 12, 48} {
		b.Run(fmt.Sprintf("domains=%d", domains), func(b *testing.B) {
			trms, task := benchTRMS(b, domains)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := trms.Submit(task, float64(i))
				if err != nil {
					b.Fatal(err)
				}
				benchPlacement = p
			}
		})
	}
}
