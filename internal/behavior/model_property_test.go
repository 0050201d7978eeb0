// Property tests pitting the fault package's adversary phase machines
// against every registered trust model.  Like adversary_property_test.go
// they live in the external test package because fault imports behavior:
// adversary transactions are scored by the behavior scorer, then replayed
// into each trust policy, closing the loop transaction → score → trust.
package behavior_test

import (
	"fmt"
	"testing"

	"gridtrust/internal/behavior"
	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

const modelCtx = trust.Context("compute")

// newPropModel builds a model with the fault-study configuration: no
// decay (time-independent scores) and the neutral initial score.
func newPropModel(t *testing.T, name string) trust.Model {
	t.Helper()
	m, err := trust.NewModel(name, trust.Config{Alpha: 0.3, Beta: 0.7, InitialScore: 3.5})
	if err != nil {
		t.Fatalf("model %q: %v", name, err)
	}
	return m
}

// assertNeverBeatsHonestModel replays an adversary's scored transactions
// into a trust model in lockstep with an honest twin and checks that at
// every step — and therefore in steady state — the adversary's trust
// never exceeds the twin's.  period > 0 gives both actors fresh
// identities every period transactions (the whitewash move): the twin
// resets too, so the comparison is against an honest identity of the
// same age — whitewashing must not beat simply being new and honest.
func assertNeverBeatsHonestModel(t *testing.T, modelName, advName string, scores []float64, period int) {
	t.Helper()
	m := newPropModel(t, modelName)
	asker := trust.EntityID("asker")
	ident := func(prefix string, i int) trust.EntityID {
		if period <= 0 {
			return trust.EntityID(prefix)
		}
		return trust.EntityID(fmt.Sprintf("%s#%d", prefix, i/period))
	}
	for i, s := range scores {
		now := float64(i)
		adv, hon := ident("adv", i), ident("honest", i)
		if _, err := m.Observe(asker, adv, modelCtx, s, now); err != nil {
			t.Fatalf("%s/%s: observe adversary at %d: %v", modelName, advName, i, err)
		}
		if _, err := m.Observe(asker, hon, modelCtx, trust.MaxScore, now); err != nil {
			t.Fatalf("%s/%s: observe honest at %d: %v", modelName, advName, i, err)
		}
		ta, err := m.Trust(asker, adv, modelCtx, now)
		if err != nil {
			t.Fatalf("%s/%s: trust adversary at %d: %v", modelName, advName, i, err)
		}
		th, err := m.Trust(asker, hon, modelCtx, now)
		if err != nil {
			t.Fatalf("%s/%s: trust honest at %d: %v", modelName, advName, i, err)
		}
		if ta > th+1e-9 {
			t.Fatalf("%s/%s: step %d: adversary trust %.6f beats honest %.6f",
				modelName, advName, i, ta, th)
		}
	}
}

// TestOscillatorNeverBeatsHonestPerModel checks that under every
// registered trust model an oscillating actor's score never exceeds an
// honest actor's observed in lockstep, at any point of either phase.
func TestOscillatorNeverBeatsHonestPerModel(t *testing.T) {
	shapes := []fault.Oscillator{
		{GoodRun: 10, BadRun: 5},
		{GoodRun: 3, BadRun: 1},
		{GoodRun: 1, BadRun: 1},
	}
	for _, modelName := range trust.ModelNames() {
		for _, shape := range shapes {
			for _, prob := range []float64{0, 1} {
				shape.IncidentProb = prob
				recs, err := shape.Records(rng.New(7), 150)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("osc(%d,%d,p=%g)", shape.GoodRun, shape.BadRun, prob)
				assertNeverBeatsHonestModel(t, modelName, name, scoreAll(t, recs), 0)
			}
		}
	}
}

// TestWhitewasherNeverBeatsHonestPerModel checks that under every
// registered trust model a whitewashing actor — defect, shed the
// identity, return clean — never outscores an honest identity of the
// same age.  Shedding history must never be an upgrade over honesty.
func TestWhitewasherNeverBeatsHonestPerModel(t *testing.T) {
	shapes := []fault.Whitewasher{
		{CleanRun: 5, Period: 20},
		{CleanRun: 1, Period: 4},
	}
	for _, modelName := range trust.ModelNames() {
		for _, shape := range shapes {
			for _, prob := range []float64{0, 1} {
				shape.IncidentProb = prob
				recs, err := shape.Records(rng.New(11), 160)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("ww(%d,%d,p=%g)", shape.CleanRun, shape.Period, prob)
				assertNeverBeatsHonestModel(t, modelName, name, scoreAll(t, recs), shape.Period)
			}
		}
	}
}

// TestLyingCliqueCannotBeatDirectExperienceUnderPurging feeds the asker
// enough bad direct experience to anchor the purge model's deviation
// test, then has a five-liar clique claim the maximum score for the
// colluder.  Under purging the clique's claims are discarded and trust
// cannot rise above the asker's own direct-experience score; under the
// paper's plain weighted average the same clique does drag trust up,
// which is exactly the vulnerability purging removes.
func TestLyingCliqueCannotBeatDirectExperienceUnderPurging(t *testing.T) {
	feed := func(m trust.Model) (direct, overall float64) {
		t.Helper()
		asker := trust.EntityID("asker")
		colluder := trust.EntityID("colluder")
		// Four bad transactions: past the purge model's direct-evidence
		// minimum, so Θ itself is the deviation reference.
		scorer := behavior.MustDefaultScorer()
		for i, rec := range fault.HonestRecords(4) {
			rec.Completed = false // detected incident → score 1
			s, err := scorer.Score(rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Observe(asker, colluder, modelCtx, s, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			liar := trust.EntityID(fmt.Sprintf("liar:%d", i))
			if err := m.(interface {
				SetDirect(x, y trust.EntityID, c trust.Context, score, now float64) error
			}).SetDirect(liar, colluder, modelCtx, trust.MaxScore, 4); err != nil {
				t.Fatal(err)
			}
		}
		direct, err := m.Direct(asker, colluder, modelCtx, 10)
		if err != nil {
			t.Fatal(err)
		}
		overall, err = m.Trust(asker, colluder, modelCtx, 10)
		if err != nil {
			t.Fatal(err)
		}
		return direct, overall
	}

	direct, overall := feed(newPropModel(t, "purge"))
	if overall > direct+1e-9 {
		t.Fatalf("purge: clique raised trust to %.6f above direct experience %.6f", overall, direct)
	}

	// Control: the undefended average must be movable by the same clique,
	// or the assertion above would be vacuous.
	pDirect, pOverall := feed(newPropModel(t, trust.DefaultModel))
	if pOverall <= pDirect {
		t.Fatalf("paper control: clique failed to move trust (%.6f vs direct %.6f); purge test is vacuous",
			pOverall, pDirect)
	}
}
