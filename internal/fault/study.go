package fault

import (
	"fmt"

	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

// StudyContext is the trust context the adversary study runs in.
const StudyContext = trust.Context("compute")

// PurgeThreshold is the R below which the R-weighted variant purges a
// recommender from Ω (trust.Config.PurgeBelow).
const PurgeThreshold = 0.2

// auditWarmup is the number of rounds before the observer starts auditing
// recommenders: R is "learned based on actual outcomes" (Section 2.2), so
// some direct experience must exist first.
const auditWarmup = 10

// directEvidenceMin is how many direct transactions the observer needs
// with a resource before using it as an audit reference.
const directEvidenceMin = 3

// StudyConfig parameterises RunStudy, the closed-loop experiment pitting
// the paper's recommender trust factor R against a collusive lying
// population.  Zero-valued fields take the documented defaults.
type StudyConfig struct {
	// Resources is the number of placement targets (default 10);
	// BadFraction of them (default 0.4) misbehave, defecting with
	// probability BadDefectProb (default 0.7) per transaction versus
	// GoodDefectProb (default 0.02) for the honest rest.
	Resources      int
	BadFraction    float64
	GoodDefectProb float64
	BadDefectProb  float64

	// Oscillate makes the bad resources oscillators instead of constant
	// defectors: they behave cleanly until trusted, then defect, in
	// alternating phases (the "milk the trust you built" strategy).
	Oscillate bool

	// Recommenders is the recommender population size (default 10);
	// LiarFraction of them form a collusive clique that boosts the bad
	// resources to the top of the scale and badmouths the good ones to
	// the bottom.
	Recommenders int
	LiarFraction float64

	// Rounds is the number of placement rounds (default 200).
	Rounds int

	// RWeighted enables the defense under study: the observer audits each
	// recommender's claims against its own direct experience, learns a
	// recommender trust factor R, and purges recommenders below
	// PurgeThreshold.  When false every R is pinned to 1 — the paper's
	// reputation formula with its defense amputated.
	RWeighted bool

	// Alpha and Beta weight direct trust vs reputation in Γ (defaults
	// 0.3/0.7 — a reputation-dominated regime, the setting that actually
	// stresses R; with α ≫ β lies barely matter either way).
	Alpha, Beta float64
}

// withDefaults fills unset fields.
func (c StudyConfig) withDefaults() StudyConfig {
	if c.Resources == 0 {
		c.Resources = 10
	}
	if c.BadFraction == 0 {
		c.BadFraction = 0.4
	}
	if c.GoodDefectProb == 0 {
		c.GoodDefectProb = 0.02
	}
	if c.BadDefectProb == 0 {
		c.BadDefectProb = 0.7
	}
	if c.Recommenders == 0 {
		c.Recommenders = 10
	}
	if c.Rounds == 0 {
		c.Rounds = 200
	}
	if c.Alpha == 0 && c.Beta == 0 {
		c.Alpha, c.Beta = 0.3, 0.7
	}
	return c
}

// Validate rejects unrunnable configurations.
func (c StudyConfig) Validate() error {
	if c.Resources < 2 || c.Recommenders < 1 || c.Rounds < 1 {
		return fmt.Errorf("fault: study needs >= 2 resources, >= 1 recommenders, >= 1 rounds")
	}
	names := [...]string{"bad fraction", "liar fraction", "good defect prob", "bad defect prob"}
	for i, v := range [...]float64{c.BadFraction, c.LiarFraction, c.GoodDefectProb, c.BadDefectProb} {
		if v < 0 || v > 1 {
			return fmt.Errorf("fault: study %s %g outside [0,1]", names[i], v)
		}
	}
	return nil
}

// StudyResult reports how the observer's trust table and placements fared
// against the adversary population.
type StudyResult struct {
	// TrustError is the mean absolute error of the observer's eventual
	// trust Γ versus each resource's true expected behavior score — how
	// corrupted the trust table ended up.
	TrustError float64
	// DegradationPct is the mean per-round placement cost relative to an
	// oracle that always uses the best resource, as a percentage above
	// the oracle's expected cost.
	DegradationPct float64
	// BadShare is the fraction of placements that landed on misbehaving
	// resources.
	BadShare float64
	// MeanLiarR and MeanHonestR are the final learned recommender trust
	// factors, averaged over the lying and honest populations (both 1
	// when RWeighted is false).
	MeanLiarR, MeanHonestR float64
}

// roundCost models the completion cost of one placement given its
// transaction outcome: a flat base plus a misbehavior premium (re-runs,
// verification, cleanup) proportional to how far below perfect the
// outcome fell.
func roundCost(outcome float64) float64 {
	return 100 * (1 + 0.15*(trust.MaxScore-outcome))
}

// RunStudy runs the closed trust loop of Figure 1 (closedLoop) under the
// paper's own engine against a lying recommender clique and misbehaving
// resources, constant defectors or oscillators.  With RWeighted the observer
// audits each recommender's stored claim against its own direct experience
// and weights (or purges) accordingly; without it every R stays pinned at 1.
// Deterministic given (cfg, src).
func RunStudy(cfg StudyConfig, src *rng.Source) (*StudyResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	env := ZooClique
	if cfg.Oscillate {
		env = ZooOscillate
	}
	return closedLoop(trust.DefaultModel, env, cfg, src)
}
