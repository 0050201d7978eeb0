package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
)

// twoDomainTopology builds two GDs: GD0 has clients and one machine, GD1
// has one machine.  Both RDs support compute and storage.
func twoDomainTopology(t *testing.T) *grid.Topology {
	t.Helper()
	mkRD := func(id grid.DomainID, rtl grid.TrustLevel) *grid.ResourceDomain {
		return &grid.ResourceDomain{
			ID:    id,
			Owner: "org",
			Supported: map[grid.Activity]grid.TrustLevel{
				grid.ActCompute: grid.LevelC,
				grid.ActStorage: grid.LevelC,
			},
			RTL: rtl,
			Machines: []*grid.Machine{
				{ID: grid.MachineID(id), Name: "m", RD: id},
			},
		}
	}
	gd0 := &grid.GridDomain{
		ID: 0, Name: "gd0", Owner: "org",
		RD: mkRD(0, grid.LevelA),
		CD: &grid.ClientDomain{
			ID:     0,
			Owner:  "org",
			Sought: map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
			RTL:    grid.LevelA,
			Clients: []*grid.Client{
				{ID: 0, Name: "c0", CD: 0},
			},
		},
	}
	gd1 := &grid.GridDomain{
		ID: 1, Name: "gd1", Owner: "org2",
		RD: mkRD(1, grid.LevelA),
	}
	top, err := grid.NewTopology(gd0, gd1)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// cdEntity, rdEntity and activityContext are the names the TRMS gives
// the trust model for a client domain, a resource domain and an activity.
func cdEntity(id grid.DomainID) trust.EntityID { return trust.EntityID(fmt.Sprintf("cd:%d", id)) }
func rdEntity(id grid.DomainID) trust.EntityID { return trust.EntityID(fmt.Sprintf("rd:%d", id)) }
func activityContext(a grid.Activity) trust.Context {
	return trust.Context(a.String())
}

// directSetter is the *trust.Engine method every registered model
// promotes beyond the trust.Model interface.
type directSetter interface {
	SetDirect(x, y trust.EntityID, c trust.Context, score, now float64) error
}

func newTRMS(t *testing.T, cfg Config) *TRMS {
	t.Helper()
	trms, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(trms.Close)
	return trms
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted nil topology")
	}
	top := twoDomainTopology(t)
	if _, err := New(Config{Topology: top, InitialTrust: grid.LevelF}); err == nil {
		t.Error("accepted non-offerable initial trust")
	}
	if _, err := New(Config{Topology: top, ETSRule: grid.ETSRule(9)}); err == nil {
		t.Error("accepted invalid ETS rule")
	}
	if _, err := New(Config{Topology: top, TCWeight: -3}); err == nil {
		t.Error("accepted negative TC weight")
	}
}

// TestNewRejectsNonFiniteTCWeight: with a NaN or infinite weight every
// completion time is NaN or +Inf and every submit would fail, so the TRMS
// refuses to start.
func TestNewRejectsNonFiniteTCWeight(t *testing.T) {
	top := twoDomainTopology(t)
	for _, w := range []float64{math.NaN(), math.Inf(1)} {
		if _, err := New(Config{Topology: top, TCWeight: w}); err == nil {
			t.Errorf("accepted TC weight %g", w)
		}
	}
}

func TestSubmitBasicPlacement(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	task := Task{
		Client: 0,
		ToA:    grid.MustToA(grid.ActCompute),
		RTL:    grid.LevelA,
		EEC:    []float64{10, 20},
	}
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Both RDs offer C >= required A: TC = 0 everywhere, so MCT picks
	// the faster machine 0.
	if p.Machine.ID != 0 || p.TC != 0 || p.ESC != 0 {
		t.Fatalf("placement %+v, want machine 0 with zero trust cost", p)
	}
	if p.Finish != 10 || p.Start != 0 {
		t.Fatalf("timing %+v", p)
	}
	if trms.Placed() != 1 {
		t.Fatal("placed counter wrong")
	}
	// Second identical task: machine 0 is busy until 10; 10+10=20 vs
	// 0+20=20 tie -> machine 0 (lower index).
	p2, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Start != 10 && p2.Machine.ID != 1 {
		t.Fatalf("second placement %+v ignored queueing", p2)
	}
}

// TestSubmitAtNaNFails: a NaN time makes every availability NaN, which
// MCT refuses to price; the submit fails and places nothing.
func TestSubmitAtNaNFails(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{10, 20}}
	if p, err := trms.Submit(task, math.NaN()); err == nil {
		t.Fatalf("submit at NaN placed %+v", p)
	}
	if trms.Placed() != 0 {
		t.Fatalf("placed %d at NaN", trms.Placed())
	}
}

func TestSubmitValidation(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	base := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{1, 2}}
	bad := base
	bad.EEC = []float64{1}
	if _, err := trms.Submit(bad, 0); err == nil {
		t.Error("accepted wrong EEC length")
	}
	bad = base
	bad.ToA = grid.ToA{}
	if _, err := trms.Submit(bad, 0); err == nil {
		t.Error("accepted empty ToA")
	}
	bad = base
	bad.RTL = grid.LevelNone
	if _, err := trms.Submit(bad, 0); err == nil {
		t.Error("accepted invalid RTL")
	}
	bad = base
	bad.Client = 99
	if _, err := trms.Submit(bad, 0); err == nil {
		t.Error("accepted unknown client")
	}
	bad = base
	bad.ToA = grid.MustToA(grid.ActNetwork) // unsupported everywhere
	if _, err := trms.Submit(bad, 0); err == nil {
		t.Error("accepted unsupported ToA")
	}
}

func TestTrustCostInfluencesPlacement(t *testing.T) {
	// Requiring level E with the default C table means TC = 2 on both
	// machines (ETS(E, C) = 2).  Raise RD 1's offered trust to E via a
	// direct table write: the scheduler should now prefer machine 1 even
	// though it is slower, when the trust saving outweighs speed.
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if err := trms.Table().Set(0, 1, grid.ActCompute, grid.LevelE); err != nil {
		t.Fatal(err)
	}
	task := Task{
		Client: 0,
		ToA:    grid.MustToA(grid.ActCompute),
		RTL:    grid.LevelE,
		EEC:    []float64{100, 105},
	}
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Machine 0: 100 * (1 + 0.15*2) = 130.  Machine 1: 105 * 1 = 105.
	if p.Machine.ID != 1 {
		t.Fatalf("placement chose machine %d; trust table ignored", p.Machine.ID)
	}
	if p.TC != 0 || p.ECC != 105 {
		t.Fatalf("placement costs %+v", p)
	}
}

// TestFigure1Architecture exercises the full closed loop of Figure 1:
// schedule → execute → report outcome → the agent updates the trust table
// → later schedules shift.  The table moves before ReportOutcome returns.
func TestFigure1Architecture(t *testing.T) {
	trms := newTRMS(t, Config{
		Topology: twoDomainTopology(t),
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	task := Task{
		Client: 0,
		ToA:    grid.MustToA(grid.ActCompute),
		RTL:    grid.LevelE,
		EEC:    []float64{100, 100},
	}
	// Initially both RDs offer C: TC = ETS(E,C) = 2 on both; MCT picks
	// machine 0.
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine.ID != 0 || p.TC != 2 {
		t.Fatalf("initial placement %+v", p)
	}

	// The interaction goes extremely well: outcome 6 (level F region,
	// quantised to offerable E).  Report it repeatedly so the EWMA-free
	// (smoothing=1) engine jumps immediately.
	if err := trms.ReportOutcome(p, task.ToA, 6, 1); err != nil {
		t.Fatal(err)
	}

	tl, ok := trms.Table().Replica().Get(0, 0, grid.ActCompute)
	if !ok {
		t.Fatal("table entry vanished")
	}
	if tl != grid.LevelE {
		t.Fatalf("table entry = %v after glowing outcome, want E", tl)
	}

	// A new task at a much later time, machines idle: RD0 now offers E
	// (TC 0), RD1 still C (TC 2).  MCT must choose machine 0 every time.
	p2, err := trms.Submit(task, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Machine.ID != 0 || p2.TC != 0 {
		t.Fatalf("post-update placement %+v, want machine 0 with TC 0", p2)
	}

	processed, committed, rejected := trms.AgentStats()
	if processed == 0 || committed == 0 || rejected != 0 {
		t.Fatalf("agent stats %d/%d/%d", processed, committed, rejected)
	}
}

func TestBadOutcomeLowersTrust(t *testing.T) {
	trms := newTRMS(t, Config{
		Topology: twoDomainTopology(t),
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	task := Task{
		Client: 0,
		ToA:    grid.MustToA(grid.ActCompute),
		RTL:    grid.LevelC,
		EEC:    []float64{100, 100},
	}
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := trms.ReportOutcome(p, task.ToA, 1, 1); err != nil { // terrible
		t.Fatal(err)
	}
	tl, _ := trms.Table().Replica().Get(0, p.RD, grid.ActCompute)
	if tl >= grid.LevelC {
		t.Fatalf("trust did not fall after bad outcome: %v", tl)
	}
}

func TestReportOutcomeValidation(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if err := trms.ReportOutcome(nil, grid.MustToA(grid.ActCompute), 3, 0); err == nil {
		t.Error("accepted nil placement")
	}
	p := &Placement{CD: 0, RD: 0}
	if err := trms.ReportOutcome(p, grid.MustToA(grid.ActCompute), 9, 0); err == nil {
		t.Error("accepted off-scale outcome")
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	trms, err := New(Config{Topology: twoDomainTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	trms.Close()
	trms.Close() // must not panic
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{1, 2}}
	if _, err := trms.Submit(task, 0); err == nil {
		t.Error("closed TRMS accepted a task")
	}
	if err := trms.ReportOutcome(&Placement{}, task.ToA, 3, 0); err == nil {
		t.Error("closed TRMS accepted an outcome")
	}
}

// requireTableMatchesTrust checks every table cell the model has evidence
// for against its relationship's Γ, quantised as the table hook does (F is
// requirable only, so it becomes E), and returns how many it checked.
func requireTableMatchesTrust(t *testing.T, trms *TRMS, now float64) int {
	t.Helper()
	checked := 0
	for _, e := range trms.Table().Replica().Since(0) {
		from, to, ctx := cdEntity(e.CD), rdEntity(e.RD), activityContext(e.Activity)
		if _, seen, err := trms.Model().Recommendation(from, to, ctx, now); err != nil || !seen {
			continue
		}
		score, err := trms.Model().Trust(from, to, ctx, now)
		if err != nil {
			t.Fatal(err)
		}
		want := grid.LevelFromScore(score)
		if !want.Offerable() {
			want = grid.MaxOfferable
		}
		if e.Level != want {
			t.Errorf("cell (CD %d, RD %d, %v) = %v, but Γ = %g quantises to %v", e.CD, e.RD, e.Activity, e.Level, score, want)
		}
		checked++
	}
	return checked
}

// TestSequentialReportsAreDeterministic: a report is applied before
// ReportOutcome returns, so one goroutine's submits and reports price every
// submit from the same table on every run, end in one engine state, and
// leave every cell at its relationship's quantised Γ.
func TestSequentialReportsAreDeterministic(t *testing.T) {
	const runs, tasks = 20, 400
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute, grid.ActStorage), RTL: grid.LevelD, EEC: []float64{5, 7}}
	var first []byte
	for run := 0; run < runs; run++ {
		trms := newTRMS(t, Config{
			Topology: twoDomainTopology(t),
			Trust:    trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.4},
		})
		for i := 0; i < tasks; i++ {
			p, err := trms.Submit(task, float64(i))
			if err != nil {
				t.Fatal(err)
			}
			if err := trms.ReportOutcome(p, task.ToA, float64(1+i%6), float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if n := requireTableMatchesTrust(t, trms, tasks); n != trms.Table().Replica().Len() {
			t.Fatalf("run %d: reports reached %d of %d cells", run, n, trms.Table().Replica().Len())
		}
		state, err := json.Marshal(trms.Model().Export())
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = state
		} else if !bytes.Equal(state, first) {
			t.Fatalf("run %d ended in a different engine state than run 0", run)
		}
	}
}

// TestNaNIsRejected: NaN passes every `x < min || x > max` range check, so
// each entry point that takes an outcome, a score or a factor rejects it
// explicitly.  Under every model, a later outcome of 5 then leaves Γ on
// the scale; one accepted NaN would have left it NaN for good.
func TestNaNIsRejected(t *testing.T) {
	nan := math.NaN()
	p := &Placement{CD: 0, RD: 1}
	toa := grid.MustToA(grid.ActCompute)
	from, to, ctx := cdEntity(0), rdEntity(1), activityContext(grid.ActCompute)
	for _, c := range []struct {
		name string
		call func(*TRMS) error
	}{
		{"TRMS.ReportOutcome", func(trms *TRMS) error { return trms.ReportOutcome(p, toa, nan, 1) }},
		{"Model.Observe", func(trms *TRMS) error {
			_, err := trms.Model().Observe(from, to, ctx, nan, 1)
			return err
		}},
		{"Model.SetDirect", func(trms *TRMS) error { return trms.Model().(directSetter).SetDirect(from, to, ctx, nan, 1) }},
		{"Model.SetRecommenderFactor", func(trms *TRMS) error { return trms.Model().SetRecommenderFactor(from, to, nan) }},
	} {
		for _, model := range trust.ModelNames() {
			t.Run(c.name+"/"+model, func(t *testing.T) {
				trms := newTRMS(t, Config{Topology: twoDomainTopology(t), TrustModel: model})
				if err := c.call(trms); err == nil {
					t.Errorf("%s accepted NaN", c.name)
				}
				if err := trms.ReportOutcome(p, toa, 5, 2); err != nil {
					t.Fatal(err)
				}
				if g, err := trms.Model().Trust(from, to, ctx, 2); err != nil || !(g >= trust.MinScore && g <= trust.MaxScore) {
					t.Fatalf("Γ = %g (%v) after an outcome of 5, want a score on [%g,%g]", g, err, trust.MinScore, trust.MaxScore)
				}
			})
		}
	}
}

func TestConcurrentSubmitAndReport(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelC, EEC: []float64{5, 7}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p, err := trms.Submit(task, float64(i))
				if err != nil {
					t.Error(err)
					return
				}
				// Outcomes vary so an older level written last would show.
				if err := trms.ReportOutcome(p, task.ToA, float64(1+(w+i)%6), float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	requireTableMatchesTrust(t, trms, 50)
	if trms.Placed() != 400 {
		t.Fatalf("placed %d, want 400", trms.Placed())
	}
	processed, _, rejected := trms.AgentStats()
	if processed != 400 || rejected != 0 {
		t.Fatalf("agents processed %d (rejected %d), want 400/0", processed, rejected)
	}
}

func TestCustomHeuristic(t *testing.T) {
	// OLB ignores cost: with machine 0 busy it must pick machine 1.
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t), Heuristic: sched.OLB{}})
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{1, 1000}}
	if _, err := trms.Submit(task, 0); err != nil {
		t.Fatal(err)
	}
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine.ID != 1 {
		t.Fatalf("OLB placement %+v, want machine 1", p)
	}
}

func TestSchedulerStateRoundTrip(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{10, 20}}
	p, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	placed, freeTime := trms.SchedulerState()
	if placed != 1 || freeTime[p.MachineIdx] != p.Finish {
		t.Fatalf("state %d %v, want 1 placement finishing at %g", placed, freeTime, p.Finish)
	}
	// Mutating the returned slice must not touch the live TRMS.
	freeTime[0] = 999
	_, again := trms.SchedulerState()
	if again[0] == 999 {
		t.Fatal("SchedulerState aliases internal state")
	}

	fresh := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if err := fresh.RestoreSchedulerState(placed, []float64{p.Finish, 0}); err != nil {
		t.Fatal(err)
	}
	if fresh.Placed() != 1 {
		t.Fatal("restore lost the placement count")
	}
	// The restored machine queue must shape the next placement exactly as
	// on the original: machine 0 is busy until 10, so 10+10 vs 0+20 ties
	// and MCT keeps machine 0.
	pOrig, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	pRest, err := fresh.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pOrig.MachineIdx != pRest.MachineIdx || pOrig.Start != pRest.Start || pOrig.Finish != pRest.Finish {
		t.Fatalf("restored TRMS diverged: %+v vs %+v", pOrig, pRest)
	}

	if err := fresh.RestoreSchedulerState(0, []float64{1}); err == nil {
		t.Fatal("RestoreSchedulerState accepted wrong machine count")
	}
	if err := fresh.RestoreSchedulerState(-1, []float64{0, 0}); err == nil {
		t.Fatal("RestoreSchedulerState accepted negative count")
	}
}

func TestRecoverPlacementIsOrderInsensitive(t *testing.T) {
	a := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	b := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	finishes := []float64{30, 10, 20}
	for _, f := range finishes {
		if err := a.RecoverPlacement(0, f); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(finishes) - 1; i >= 0; i-- {
		if err := b.RecoverPlacement(0, finishes[i]); err != nil {
			t.Fatal(err)
		}
	}
	pa, fa := a.SchedulerState()
	pb, fb := b.SchedulerState()
	if pa != pb || fa[0] != fb[0] || fa[0] != 30 {
		t.Fatalf("replay order changed state: %d %v vs %d %v", pa, fa, pb, fb)
	}
	if err := a.RecoverPlacement(7, 1); err == nil {
		t.Fatal("RecoverPlacement accepted an out-of-range machine")
	}
}

// TestBuiltinMaxMatchesMathMax writes down where the builtin max that
// currentAvail, commit and RecoverPlacement take agrees with math.Max: bit
// for bit on every pair of non-NaN inputs, signed zeros and infinities
// included.  With a NaN argument both return a NaN, though not always the
// same one, except that math.Max(+Inf, NaN) is +Inf.  Neither NaN nor an
// infinity reaches the TRMS over the wire: JSON carries neither.
func TestBuiltinMaxMatchesMathMax(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 5e-324, 1, 30, -1, math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := max(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max(%v, %v) = %#x, math.Max %#x", a, b, math.Float64bits(got), math.Float64bits(want))
			}
		}
		if !math.IsNaN(max(a, math.NaN())) || !math.IsNaN(max(math.NaN(), a)) {
			t.Errorf("max(%v, NaN) is not NaN", a)
		}
	}
}

func TestRestoreAgentStats(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if err := trms.RestoreAgentStats(10, 7, 2); err != nil {
		t.Fatal(err)
	}
	p, c, r := trms.AgentStats()
	if p != 10 || c != 7 || r != 2 {
		t.Fatalf("restored stats %d/%d/%d, want 10/7/2", p, c, r)
	}
	// A live report counts on top of the restored base.
	task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{10, 20}}
	pl, err := trms.Submit(task, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := trms.ReportOutcome(pl, task.ToA, 6, 1); err != nil {
		t.Fatal(err)
	}
	p, _, r = trms.AgentStats()
	if p != 11 || r != 2 {
		t.Fatalf("stats after one live report %d/%d, want 11 processed, 2 rejected", p, r)
	}

	if err := trms.RestoreAgentStats(-1, 0, 0); err == nil {
		t.Fatal("accepted negative processed")
	}
	if err := trms.RestoreAgentStats(3, 2, 2); err == nil {
		t.Fatal("accepted committed+rejected > processed")
	}
}

// TestTrustUpdateMatchesNamesExactly: the agent's table hook is handed the
// report's domain ids and activity, and writes only a cell of the
// topology's vocabulary, so a domain the topology does not have (of
// either kind) or an activity outside the built-in ones moves nothing,
// and a report about the topology does.
func TestTrustUpdateMatchesNamesExactly(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	before := trms.Table().Replica().Version()
	for _, c := range []struct {
		cd, rd grid.DomainID
		act    grid.Activity
	}{
		{7, 1, grid.ActCompute},
		{1, 1, grid.ActCompute}, // gd1 has an RD but no CD
		{0, 7, grid.ActCompute},
		{-1, 1, grid.ActCompute},
		{0, -1, grid.ActCompute},
		{0, 1, grid.NumBuiltinActivities},
		{0, 1, -1},
	} {
		trms.applyTrustUpdate(c.cd, c.rd, c.act, 1)
		if v := trms.Table().Replica().Version(); v != before {
			t.Fatalf("update (%d, %d, %v) wrote the table", c.cd, c.rd, c.act)
		}
	}
	trms.applyTrustUpdate(0, 1, grid.ActStorage, 1)
	if tl, _ := trms.Table().Replica().Get(0, 1, grid.ActStorage); tl != grid.LevelA {
		t.Fatalf("entry (0,1,storage) = %v after a score-1 update, want A", tl)
	}
	// Outside the vocabulary a report still reaches the engine, under the
	// name it always had.
	if err := trms.ReportOutcome(&Placement{CD: 7, RD: 8}, grid.MustToA(grid.ActCompute), 5, 1); err != nil {
		t.Fatal(err)
	}
	rels := trms.Model().Export().Relationships
	if len(rels) != 1 || rels[0].From != "cd:7" || rels[0].To != "rd:8" || rels[0].Ctx != "compute" {
		t.Fatalf("a report about unknown domains recorded %+v, want cd:7 -> rd:8 in compute", rels)
	}
}

// TestBadEECIsRejected pins the task check Submit and SubmitBatch share:
// an execution cost must be finite and non-negative.  A negative one used
// to be placed with Finish before Start and walked the machine's free time
// backwards; NaN and ±Inf were accepted too.
func TestBadEECIsRejected(t *testing.T) {
	for _, v := range []float64{-100, math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(v), func(t *testing.T) {
			trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
			task := Task{Client: 0, ToA: grid.MustToA(grid.ActCompute), RTL: grid.LevelA, EEC: []float64{10, v}}
			_, err := trms.Submit(task, 5)
			if want := "core: task EEC entry 1 is " + fmt.Sprint(v); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("Submit: %v, want an error starting %q", err, want)
			}
			tasks := batchTasks(3, 10, 12)
			tasks[2].EEC[1] = v
			_, err = trms.SubmitBatch(tasks, sched.MinMin{}, 5)
			if want := "core: batch task 2 EEC entry 1 is " + fmt.Sprint(v); err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("SubmitBatch: %v, want an error starting %q", err, want)
			}
			if placed, ft := trms.SchedulerState(); placed != 0 || ft[0] != 0 || ft[1] != 0 {
				t.Errorf("rejected tasks changed the scheduler: placed %d, free times %v", placed, ft)
			}
		})
	}
}

// TestNegativeDomainIDIsRejected: a domain id indexes the TRMS's handle
// slices, so New refuses a topology with a negative one.
func TestNegativeDomainIDIsRejected(t *testing.T) {
	rd := &grid.ResourceDomain{
		ID: -1, Owner: "org", RTL: grid.LevelA,
		Supported: map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
		Machines:  []*grid.Machine{{ID: 0, Name: "m", RD: -1}},
	}
	top, err := grid.NewTopology(&grid.GridDomain{ID: 0, Name: "gd", Owner: "org", RD: rd})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topology: top}); err == nil || !strings.Contains(err.Error(), "rd id -1 is negative") {
		t.Fatalf("New over RD id -1: %v, want a negative-id error", err)
	}
}
