package fault

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

// TestRunZooAllCells runs every registered model against every scenario
// and checks the metrics are sane and the run is bit-deterministic.
func TestRunZooAllCells(t *testing.T) {
	for _, m := range trust.ModelNames() {
		for _, sc := range ZooScenarios() {
			cfg := ZooConfig{Model: m, Scenario: sc, Rounds: 120}
			a, err := RunZoo(cfg, rng.New(42))
			if err != nil {
				t.Fatalf("%s/%s: %v", m, sc, err)
			}
			if math.IsNaN(a.TrustError) || a.TrustError < 0 {
				t.Errorf("%s/%s: trust error %g", m, sc, a.TrustError)
			}
			if a.BadShare < 0 || a.BadShare > 1 {
				t.Errorf("%s/%s: bad share %g", m, sc, a.BadShare)
			}
			if math.IsNaN(a.DegradationPct) || math.IsInf(a.DegradationPct, 0) {
				t.Errorf("%s/%s: degradation %g", m, sc, a.DegradationPct)
			}
			b, err := RunZoo(cfg, rng.New(42))
			if err != nil {
				t.Fatalf("%s/%s rerun: %v", m, sc, err)
			}
			if *a != *b {
				t.Errorf("%s/%s: nondeterministic: %+v vs %+v", m, sc, a, b)
			}
		}
	}
}

// TestRunZooRejectsBadConfig checks validation surfaces unknown models and
// scenarios.
func TestRunZooRejectsBadConfig(t *testing.T) {
	if _, err := RunZoo(ZooConfig{Model: "nope", Scenario: ZooClique}, rng.New(1)); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := RunZoo(ZooConfig{Scenario: "nope"}, rng.New(1)); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestRunZooCliqueDefault checks the clique scenario defaults to a
// non-empty liar population (a clique with no liars is no clique).
func TestRunZooCliqueDefault(t *testing.T) {
	cfg := ZooConfig{Scenario: ZooClique}.study()
	if cfg.LiarFraction != 0.4 {
		t.Fatalf("clique liar fraction defaulted to %g", cfg.LiarFraction)
	}
	if cfg := (ZooConfig{Scenario: ZooOscillate}.study()); cfg.LiarFraction != 0 {
		t.Fatalf("oscillate liar fraction defaulted to %g", cfg.LiarFraction)
	}
}
