package trust

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func defaultCfg() Config {
	return Config{Alpha: 0.7, Beta: 0.3}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Alpha: 0.5, Beta: 0.6},                    // don't sum to 1
		{Alpha: -0.1, Beta: 1.1},                   // negative
		{Alpha: 0.5, Beta: 0.5, InitialScore: 9},   // off scale
		{Alpha: 0.5, Beta: 0.5, UpdateBatch: -2},   // bad batch
		{Alpha: 0.5, Beta: 0.5, Smoothing: 1.5},    // bad smoothing
		{Alpha: 0.5, Beta: 0.5, Smoothing: -0.1},   // bad smoothing
		{Alpha: 0.5, Beta: 0.5, InitialScore: 0.5}, // below scale
		// NaN fails every comparison, so each range check must name it.
		{Alpha: math.NaN(), Beta: 0.5},
		{Alpha: 0.5, Beta: math.NaN()},
		{Alpha: math.Inf(1), Beta: math.Inf(-1)},
		{Alpha: 0.5, Beta: 0.5, InitialScore: math.NaN()},
		{Alpha: 0.5, Beta: 0.5, InitialScore: math.Inf(1)},
		{Alpha: 0.5, Beta: 0.5, Smoothing: math.NaN()},
		{Alpha: 0.5, Beta: 0.5, Smoothing: math.Inf(1)},
		{Alpha: 0.5, Beta: 0.5, PurgeBelow: math.NaN()},
		{Alpha: 0.5, Beta: 0.5, PurgeBelow: math.Inf(-1)},
	}
	for i, cfg := range bad {
		if _, err := NewEngine(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewEngine(defaultCfg()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestUnknownEntitiesGetInitialScore(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 0.6, Beta: 0.4, InitialScore: 2})
	g, err := e.Trust("x", "y", "compute", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 2 {
		t.Fatalf("stranger trust = %g, want the initial score 2", g)
	}
}

func TestDirectTrustGammaWeighting(t *testing.T) {
	// With only x→y knowledge, Ω falls back to the initial score, so
	// Γ = α·Θ + β·initial.
	e := newTestEngine(t, Config{Alpha: 0.7, Beta: 0.3, InitialScore: 1})
	if err := e.SetDirect("x", "y", "c", 5, 0); err != nil {
		t.Fatal(err)
	}
	g, err := e.Trust("x", "y", "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.7*5 + 0.3*1
	if math.Abs(g-want) > 1e-12 {
		t.Fatalf("Γ = %g, want %g", g, want)
	}
}

func TestReputationAveraging(t *testing.T) {
	// Two recommenders with R=1 and no decay: Ω = mean of their scores.
	e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
	if err := e.SetDirect("z1", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDirect("z2", "y", "c", 2, 0); err != nil {
		t.Fatal(err)
	}
	g, err := e.Trust("x", "y", "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-4) > 1e-12 {
		t.Fatalf("Ω = %g, want 4", g)
	}
}

func TestReputationIsBitwiseDeterministic(t *testing.T) {
	// Ω averages over recommenders stored in a map; the sum must not
	// depend on map iteration order (floating-point addition is not
	// associative), or replayed experiments diverge in the last ulp.
	// Build two engines with the same relationships inserted in opposite
	// orders and query both repeatedly: every answer must be
	// bit-identical.
	const recommenders = 23
	build := func(reversed bool) *Engine {
		e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
		for i := 0; i < recommenders; i++ {
			j := i
			if reversed {
				j = recommenders - 1 - i
			}
			z := EntityID(fmt.Sprintf("z%02d", j))
			// Irregular scores and R factors so partial sums genuinely
			// depend on association.
			score := 1 + 5*math.Mod(float64(j)*0.37+0.11, 1)
			if err := e.SetDirect(z, "y", "c", score, float64(j)); err != nil {
				t.Fatal(err)
			}
			if err := e.SetRecommenderFactor(z, "y", 0.3+0.7*math.Mod(float64(j)*0.61, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	a, b := build(false), build(true)
	want, err := a.Reputation("x", "y", "c", 30)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		ga, err := a.Reputation("x", "y", "c", 30)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := b.Reputation("x", "y", "c", 30)
		if err != nil {
			t.Fatal(err)
		}
		if ga != want || gb != want {
			t.Fatalf("trial %d: reputation diverged: %v / %v, want %v", trial, ga, gb, want)
		}
	}
}

func TestReputationExcludesSelfAndTarget(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
	// x's own relationship must not feed Ω ("∀ z ≠ x").
	if err := e.SetDirect("x", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	// y's opinion of itself must not count either.
	if err := e.SetDirect("y", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	g, err := e.Trust("x", "y", "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("Ω = %g, want initial score 1 (no eligible recommenders)", g)
	}
}

func TestReputationIsPerContext(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
	if err := e.SetDirect("z", "y", "storage", 6, 0); err != nil {
		t.Fatal(err)
	}
	g, err := e.Trust("x", "y", "compute", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 1 {
		t.Fatalf("compute trust = %g; storage recommendation leaked across contexts", g)
	}
}

func TestCollusionResistance(t *testing.T) {
	// A clique of allies praising y should move Ω far less than honest
	// recommenders would — the R factor at work.
	build := func(withAlliance bool) float64 {
		e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
		for _, z := range []EntityID{"s1", "s2", "s3"} {
			if err := e.SetDirect(z, "y", "c", 6, 0); err != nil {
				t.Fatal(err)
			}
			if withAlliance {
				e.DeclareAlliance(z, "y")
			}
		}
		g, err := e.Trust("x", "y", "c", 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	honest := build(false)
	colluding := build(true)
	if honest != 6 {
		t.Fatalf("honest reputation = %g, want 6", honest)
	}
	if colluding >= honest-2 {
		t.Fatalf("collusion barely dampened: honest=%g colluding=%g", honest, colluding)
	}
	if colluding < MinScore {
		t.Fatalf("colluding reputation %g fell off scale", colluding)
	}
}

func TestAlliedSymmetry(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	e.DeclareAlliance("a", "b")
	if !e.Allied("a", "b") || !e.Allied("b", "a") {
		t.Fatal("alliance is not symmetric")
	}
	if e.Allied("a", "c") {
		t.Fatal("phantom alliance")
	}
}

func TestRecommenderFactorOverride(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 0, Beta: 1, InitialScore: 1})
	if err := e.SetDirect("z", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRecommenderFactor("z", "y", 0); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Trust("x", "y", "c", 0)
	// R=0 anchors the recommendation at the scale floor.
	if g != 1 {
		t.Fatalf("zero-R recommendation contributed: Ω = %g", g)
	}
	if err := e.SetRecommenderFactor("z", "y", 1.5); err == nil {
		t.Fatal("accepted R outside [0,1]")
	}
}

func TestDecayReducesTrust(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Decay: ExponentialDecay(10)})
	if err := e.SetDirect("x", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	fresh, _ := e.Trust("x", "y", "c", 0)
	later, _ := e.Trust("x", "y", "c", 10) // one half-life
	muchLater, _ := e.Trust("x", "y", "c", 100)
	if !(fresh > later && later > muchLater) {
		t.Fatalf("trust not decaying: %g, %g, %g", fresh, later, muchLater)
	}
	if math.Abs(later-(1+5*0.5)) > 1e-9 {
		t.Fatalf("half-life trust = %g, want 3.5", later)
	}
	if muchLater < MinScore {
		t.Fatalf("decayed trust %g fell below the scale floor", muchLater)
	}
}

func TestObserveBatching(t *testing.T) {
	// UpdateBatch=3: the first two observations must not commit.
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, UpdateBatch: 3, Smoothing: 1, InitialScore: 1})
	for i := 0; i < 2; i++ {
		changed, err := e.Observe("x", "y", "c", 6, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if changed {
			t.Fatalf("observation %d committed before the batch filled", i)
		}
		g, _ := e.Trust("x", "y", "c", float64(i))
		if g != 1 {
			t.Fatalf("trust moved to %g before batch commit", g)
		}
	}
	changed, err := e.Observe("x", "y", "c", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("third observation did not commit the batch")
	}
	g, _ := e.Trust("x", "y", "c", 2)
	if g != 6 {
		t.Fatalf("after batch commit trust = %g, want 6 (smoothing=1)", g)
	}
}

func TestObserveSmoothing(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 0.5, InitialScore: 2})
	if _, err := e.Observe("x", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Trust("x", "y", "c", 0)
	if math.Abs(g-4) > 1e-12 { // 0.5·2 + 0.5·6
		t.Fatalf("smoothed trust = %g, want 4", g)
	}
}

func TestObserveRejectsOffScaleOutcome(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	if _, err := e.Observe("x", "y", "c", 0.5, 0); err == nil {
		t.Fatal("accepted outcome below scale")
	}
	if _, err := e.Observe("x", "y", "c", 7, 0); err == nil {
		t.Fatal("accepted outcome above scale")
	}
}

func TestSetDirectValidation(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	if err := e.SetDirect("x", "y", "c", 0, 0); err == nil {
		t.Fatal("accepted score below scale")
	}
	if err := e.SetDirect("x", "y", "c", 6.5, 0); err == nil {
		t.Fatal("accepted score above scale")
	}
}

func TestTrustBoundsProperty(t *testing.T) {
	// Γ stays on [1,6] for arbitrary valid inputs and times.
	e := newTestEngine(t, Config{Alpha: 0.6, Beta: 0.4, Decay: ExponentialDecay(5)})
	f := func(scoreRaw, outcomeRaw uint8, dt float64) bool {
		score := MinScore + float64(scoreRaw%50)/49*5
		outcome := MinScore + float64(outcomeRaw%50)/49*5
		if err := e.SetDirect("x", "y", "c", score, 0); err != nil {
			return false
		}
		if _, err := e.Observe("z", "y", "c", outcome, 0); err != nil {
			return false
		}
		now := math.Abs(dt)
		if math.IsNaN(now) || math.IsInf(now, 0) {
			now = 1
		}
		g, err := e.Trust("x", "y", "c", now)
		return err == nil && g >= MinScore && g <= MaxScore
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEntitiesSortedAndComplete(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	_ = e.SetDirect("charlie", "alice", "c", 3, 0)
	_ = e.SetDirect("bob", "alice", "c", 3, 0)
	got := e.Entities()
	want := []EntityID{"alice", "bob", "charlie"}
	if len(got) != len(want) {
		t.Fatalf("entities = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entities = %v, want %v", got, want)
		}
	}
	if e.Relationships() != 2 {
		t.Fatalf("relationships = %d, want 2", e.Relationships())
	}
}

func TestBadDecaySurfacesError(t *testing.T) {
	cfg := Config{Alpha: 1, Beta: 0, Decay: func(float64, Context) float64 { return 2 }}
	e := newTestEngine(t, cfg)
	if err := e.SetDirect("x", "y", "c", 5, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Trust("x", "y", "c", 1); err == nil {
		t.Fatal("decay returning 2 was not rejected")
	}
}

func TestPruneRemovesStaleRelationships(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0})
	if err := e.SetDirect("old", "y", "c", 5, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDirect("fresh", "y", "c", 5, 100); err != nil {
		t.Fatal(err)
	}
	if removed := e.Prune(50); removed != 1 {
		t.Fatalf("pruned %d, want 1", removed)
	}
	if e.Relationships() != 1 {
		t.Fatalf("relationships = %d", e.Relationships())
	}
	// The stale relationship now reads as a stranger.
	g, err := e.Direct("old", "y", "c", 100)
	if err != nil {
		t.Fatal(err)
	}
	if g != e.cfg.InitialScore {
		t.Fatalf("pruned relationship still remembered: %g", g)
	}
	// The fresh one is untouched.
	g, _ = e.Direct("fresh", "y", "c", 100)
	if g != 5 {
		t.Fatalf("fresh relationship damaged: %g", g)
	}
}

func TestPruneSparesPendingBatches(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, UpdateBatch: 3})
	if _, err := e.Observe("x", "y", "c", 5, 10); err != nil {
		t.Fatal(err)
	}
	if removed := e.Prune(1000); removed != 0 {
		t.Fatalf("pruned a relationship with pending evidence (%d)", removed)
	}
}
