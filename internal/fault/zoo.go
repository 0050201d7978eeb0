package fault

import (
	"fmt"
	"math"

	"gridtrust/internal/behavior"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

// The trust-model zoo: RunZoo pits any registered trust model against the
// adversary strategies of the literature in the closed Figure 1 loop
// (closedLoop) that RunStudy runs for the paper's R factor.  Every model
// faces the same four environments —
//
//	lying-clique: a collusive recommender clique boosts the bad
//	    resources and badmouths the good ones;
//	whitewash:    the bad resources periodically shed their identity
//	    and re-register clean;
//	oscillate:    the bad resources build trust, milk it, rebuild;
//	churn:        resources crash and recover on Weibull timelines, and
//	    a placement on a down resource fails outright —
//
// and the same metrics come out (trust error against ground truth,
// placement-cost degradation against an omniscient oracle, bad-placement
// share), so `trustsim sweep configs/sweeps/trustzoo.json` can rank the
// models head-to-head.
// Deterministic given (cfg, src): all entity iteration is index-ordered
// and every model honors the trust.Model determinism contract.

// ZooScenario names one adversary environment.
type ZooScenario string

// The four environments every model is scored under.
const (
	ZooClique    ZooScenario = "lying-clique"
	ZooWhitewash ZooScenario = "whitewash"
	ZooOscillate ZooScenario = "oscillate"
	ZooChurn     ZooScenario = "churn"
)

// ZooScenarios returns the environments in canonical report order.
func ZooScenarios() []ZooScenario {
	return []ZooScenario{ZooClique, ZooWhitewash, ZooOscillate, ZooChurn}
}

// Zoo phase constants: the whitewashers shed identity every
// zooWhitewashPeriod rounds; churn resources cycle on Weibull(shape
// zooChurnShape) up/down phases, with the bad population crashing an
// order of magnitude more often.
const (
	zooWhitewashPeriod = 25
	zooChurnShape      = 1.5
	zooBadMTBF         = 12.0
	zooGoodMTBF        = 120.0
	zooMTTR            = 8.0
)

// ZooConfig parameterises one model × scenario cell.  Zero-valued fields
// take the StudyConfig defaults; LiarFraction additionally defaults to
// 0.4 in the lying-clique scenario (a clique with no liars is no clique).
type ZooConfig struct {
	// Model is the trust-model registry name; empty selects the paper's
	// default engine.
	Model string
	// Scenario selects the adversary environment.
	Scenario ZooScenario

	Resources      int
	BadFraction    float64
	GoodDefectProb float64
	BadDefectProb  float64
	Recommenders   int
	LiarFraction   float64
	Rounds         int
	Alpha, Beta    float64
}

// study resolves the cell to closedLoop's terms: the population and loop
// shape with unset fields defaulted, and the recommender audit on, so every
// model receives the same recommender-quality signal and spends it by its
// own aggregation rule.
func (c ZooConfig) study() StudyConfig {
	s := StudyConfig{
		Resources: c.Resources, BadFraction: c.BadFraction,
		GoodDefectProb: c.GoodDefectProb, BadDefectProb: c.BadDefectProb,
		Recommenders: c.Recommenders, LiarFraction: c.LiarFraction,
		Rounds: c.Rounds, RWeighted: true,
		Alpha: c.Alpha, Beta: c.Beta,
	}.withDefaults()
	if c.Scenario == ZooClique && s.LiarFraction == 0 {
		s.LiarFraction = 0.4
	}
	return s
}

// Validate rejects configurations RunZoo cannot run.
func (c ZooConfig) Validate() error {
	if !trust.KnownModel(c.Model) {
		return fmt.Errorf("fault: zoo model %q not registered (have %v)", c.Model, trust.ModelNames())
	}
	switch c.Scenario {
	case ZooClique, ZooWhitewash, ZooOscillate, ZooChurn:
	default:
		return fmt.Errorf("fault: unknown zoo scenario %q", c.Scenario)
	}
	return c.study().Validate()
}

// ZooResult reports one model's performance in one environment.
type ZooResult struct {
	// TrustError is the mean absolute error of the model's final Γ for
	// each resource's current identity versus its true expected behavior.
	TrustError float64
	// DegradationPct is the mean per-round placement cost as a percentage
	// above an oracle that always picks the best resource.
	DegradationPct float64
	// BadShare is the fraction of placements on misbehaving resources.
	BadShare float64
}

// zooState bundles one run's derived state.
type zooState struct {
	cfg    StudyConfig
	env    ZooScenario
	scorer *behavior.DefaultScorer
	src    *rng.Source

	trueScore []float64
	bad       []bool
	osc       Oscillator
	txCount   []int

	gen []int // whitewash: identity generation per resource

	// churn: per-resource phase machine over round time.
	chUp  []bool
	chEnd []float64

	failScore float64 // outcome of a transaction against a down resource
}

// resID names resource i's current identity; whitewashing bumps the
// generation so the model sees a stranger.
func (z *zooState) resID(i int) trust.EntityID {
	if z.gen[i] == 0 {
		return trust.EntityID(fmt.Sprintf("res:%d", i))
	}
	return trust.EntityID(fmt.Sprintf("res:%d#%d", i, z.gen[i]))
}

// churnAdvance rolls resource i's up/down phase machine forward to now,
// drawing fresh Weibull phase lengths as needed.
func (z *zooState) churnAdvance(i int, now float64) {
	for now >= z.chEnd[i] {
		mtbf := zooGoodMTBF
		if z.bad[i] {
			mtbf = zooBadMTBF
		}
		if z.chUp[i] {
			z.chUp[i] = false
			z.chEnd[i] += Weibull(z.src, zooMTTR, zooChurnShape)
		} else {
			z.chUp[i] = true
			z.chEnd[i] += Weibull(z.src, mtbf, zooChurnShape)
		}
	}
}

// drawOutcome samples resource i's true transaction outcome at round now
// under the configured scenario.
func (z *zooState) drawOutcome(i int, now float64) (float64, error) {
	z.txCount[i]++
	if z.env == ZooChurn {
		z.churnAdvance(i, now)
		if !z.chUp[i] {
			return z.failScore, nil
		}
	}
	defect := false
	switch {
	case !z.bad[i] || z.env == ZooChurn: // churn resources are honest while up
		defect = z.src.Float64() < z.cfg.GoodDefectProb
	case z.env == ZooOscillate:
		defect = (z.txCount[i]-1)%(z.osc.GoodRun+z.osc.BadRun) >= z.osc.GoodRun
	default: // clique and whitewash populations defect persistently
		defect = z.src.Float64() < z.cfg.BadDefectProb
	}
	if defect {
		return z.scorer.Score(defectRecord(z.src, 0.5))
	}
	return z.scorer.Score(cleanRecord())
}

// RunZoo runs one model × scenario cell of the trust zoo: closedLoop with
// the trust policy behind the Model interface, the adversary population
// drawn from the scenario and the recommender audit always on.
func RunZoo(cfg ZooConfig, src *rng.Source) (*ZooResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := closedLoop(cfg.Model, cfg.Scenario, cfg.study(), src)
	if err != nil {
		return nil, err
	}
	return &ZooResult{TrustError: r.TrustError, DegradationPct: r.DegradationPct, BadShare: r.BadShare}, nil
}

// closedLoop is the closed trust loop of Figure 1, the one copy under
// RunStudy and RunZoo.  Each round every recommender reports on a random
// resource (liars boost the clique's bad resources and badmouth the rest),
// the observer places one task on the resource the model trusts most,
// transacts, and observes the true outcome.  With cfg.RWeighted the
// observer then audits each recommender's stored claim against its own
// direct experience, sets the recommender's factor R from its error, and
// the model purges recommenders below PurgeThreshold; without it every R is
// pinned at 1 and nothing is purged (the paper's reputation formula with
// its defense amputated).  cfg must be defaulted and validated; env, not
// cfg.Oscillate, selects the environment.
func closedLoop(modelName string, env ZooScenario, cfg StudyConfig, src *rng.Source) (*StudyResult, error) {
	purge := 0.0
	if cfg.RWeighted {
		purge = PurgeThreshold
	}
	model, err := trust.NewModel(modelName, trust.Config{
		Alpha: cfg.Alpha, Beta: cfg.Beta,
		InitialScore: (trust.MinScore + trust.MaxScore) / 2,
		PurgeBelow:   purge,
	})
	if err != nil {
		return nil, err
	}

	z := &zooState{
		cfg:       cfg,
		env:       env,
		scorer:    behavior.MustDefaultScorer(),
		src:       src,
		trueScore: make([]float64, cfg.Resources),
		bad:       make([]bool, cfg.Resources),
		osc:       Oscillator{GoodRun: 8, BadRun: 8, IncidentProb: 0.5},
		txCount:   make([]int, cfg.Resources),
		gen:       make([]int, cfg.Resources),
		chUp:      make([]bool, cfg.Resources),
		chEnd:     make([]float64, cfg.Resources),
	}
	// Expected outcome of one defection (half incidents at the floor, half
	// late and corrupt deliveries) and of a failed placement against a down
	// machine.
	incident := cleanRecord()
	incident.SecurityIncident = true
	si, err := z.scorer.Score(incident)
	if err != nil {
		return nil, err
	}
	late := cleanRecord()
	late.ActualDuration = 250
	late.ResultIntegrityOK = false
	sl, err := z.scorer.Score(late)
	if err != nil {
		return nil, err
	}
	clean, err := z.scorer.Score(cleanRecord())
	if err != nil {
		return nil, err
	}
	failed := cleanRecord()
	failed.Completed = false
	failed.ResultIntegrityOK = false
	if z.failScore, err = z.scorer.Score(failed); err != nil {
		return nil, err
	}
	expDefect := (si + sl) / 2

	nBad := int(math.Round(cfg.BadFraction * float64(cfg.Resources)))
	for i := range z.bad {
		z.bad[i] = i < nBad
		switch env {
		case ZooChurn:
			// Every resource behaves honestly when up; the bad population
			// is simply down far more often.
			mtbf := zooGoodMTBF
			if z.bad[i] {
				mtbf = zooBadMTBF
			}
			avail := mtbf / (mtbf + zooMTTR)
			up := (1-cfg.GoodDefectProb)*clean + cfg.GoodDefectProb*expDefect
			z.trueScore[i] = avail*up + (1-avail)*z.failScore
			z.chUp[i] = true
			z.chEnd[i] = Weibull(src, mtbf, zooChurnShape)
		default:
			p := cfg.GoodDefectProb
			if z.bad[i] {
				p = cfg.BadDefectProb
				if env == ZooOscillate {
					p = float64(z.osc.BadRun) / float64(z.osc.GoodRun+z.osc.BadRun)
				}
			}
			z.trueScore[i] = (1-p)*clean + p*expDefect
		}
	}

	obs := trust.EntityID("observer")
	recID := func(j int) trust.EntityID { return trust.EntityID(fmt.Sprintf("rec:%d", j)) }
	nLiars := int(math.Round(cfg.LiarFraction * float64(cfg.Recommenders)))
	liar := func(j int) bool { return j < nLiars }

	lastR := make([]float64, cfg.Recommenders)
	errEWMA := make([]float64, cfg.Recommenders)
	seenErr := make([]bool, cfg.Recommenders)
	for j := range lastR {
		lastR[j] = 1
		if cfg.RWeighted {
			continue
		}
		// Amputate the defense: every recommendation carries full weight,
		// alliances and audits notwithstanding.
		for i := 0; i < cfg.Resources; i++ {
			if err := model.SetRecommenderFactor(recID(j), z.resID(i), 1); err != nil {
				return nil, err
			}
		}
	}
	directN := make([]int, cfg.Resources)
	var costSum float64
	badPlacements := 0
	for t := 0; t < cfg.Rounds; t++ {
		now := float64(t)
		// Whitewash resets: the bad population sheds its identities on a
		// fixed cadence, reappearing to the model as strangers carrying
		// the uninformed prior.  Direct-evidence counters reset with the
		// identity — the observer's history died with the old name.
		if env == ZooWhitewash && t > 0 && t%zooWhitewashPeriod == 0 {
			for i := range z.bad {
				if z.bad[i] {
					z.gen[i]++
					directN[i] = 0
				}
			}
		}
		// Recommender observations: honest ones report what they see, the
		// clique reports the inversion of reality.
		for j := 0; j < cfg.Recommenders; j++ {
			y := src.Intn(cfg.Resources)
			var outcome float64
			if liar(j) {
				outcome = trust.MinScore
				if z.bad[y] {
					outcome = trust.MaxScore
				}
			} else {
				if outcome, err = z.drawOutcome(y, now); err != nil {
					return nil, err
				}
			}
			if _, err := model.Observe(recID(j), z.resID(y), StudyContext, outcome, now); err != nil {
				return nil, err
			}
		}
		// Placement: trust-greedy over current identities, ties toward
		// the lower index.
		best, bestG := -1, math.Inf(-1)
		for i := 0; i < cfg.Resources; i++ {
			g, err := model.Trust(obs, z.resID(i), StudyContext, now)
			if err != nil {
				return nil, err
			}
			if g > bestG {
				bestG, best = g, i
			}
		}
		outcome, err := z.drawOutcome(best, now)
		if err != nil {
			return nil, err
		}
		if _, err := model.Observe(obs, z.resID(best), StudyContext, outcome, now); err != nil {
			return nil, err
		}
		directN[best]++
		costSum += roundCost(outcome)
		if z.bad[best] {
			badPlacements++
		}
		// Audit: compare each recommender's stored claim against direct
		// experience wherever the observer has enough of it, and convert
		// the error EWMA into R.
		if cfg.RWeighted && t >= auditWarmup {
			for j := 0; j < cfg.Recommenders; j++ {
				var errSum float64
				n := 0
				for i := 0; i < cfg.Resources; i++ {
					if directN[i] < directEvidenceMin {
						continue
					}
					claim, ok, err := model.Recommendation(recID(j), z.resID(i), StudyContext, now)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue
					}
					direct, err := model.Direct(obs, z.resID(i), StudyContext, now)
					if err != nil {
						return nil, err
					}
					errSum += math.Abs(claim - direct)
					n++
				}
				if n == 0 {
					continue
				}
				e := errSum / float64(n)
				if !seenErr[j] {
					errEWMA[j], seenErr[j] = e, true
				} else {
					errEWMA[j] = 0.7*errEWMA[j] + 0.3*e
				}
				// Quadratic falloff: small honest disagreement keeps
				// near-full weight, systematic lying drives R to 0.
				rel := errEWMA[j] / (trust.MaxScore - trust.MinScore)
				r := 1 - 4*rel*rel
				if r < 0 {
					r = 0
				}
				lastR[j] = r
				for i := 0; i < cfg.Resources; i++ {
					if err := model.SetRecommenderFactor(recID(j), z.resID(i), r); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	res := &StudyResult{MeanLiarR: 1, MeanHonestR: 1}
	now := float64(cfg.Rounds)
	for i := 0; i < cfg.Resources; i++ {
		g, err := model.Trust(obs, z.resID(i), StudyContext, now)
		if err != nil {
			return nil, err
		}
		res.TrustError += math.Abs(g - z.trueScore[i])
	}
	res.TrustError /= float64(cfg.Resources)
	bestTrue := math.Inf(-1)
	for _, s := range z.trueScore {
		bestTrue = math.Max(bestTrue, s)
	}
	oracle := roundCost(bestTrue)
	res.DegradationPct = (costSum/float64(cfg.Rounds) - oracle) / oracle * 100
	res.BadShare = float64(badPlacements) / float64(cfg.Rounds)
	var liarR, honestR float64
	for j, r := range lastR {
		if liar(j) {
			liarR += r
		} else {
			honestR += r
		}
	}
	if nLiars > 0 {
		res.MeanLiarR = liarR / float64(nLiars)
	}
	if n := cfg.Recommenders - nLiars; n > 0 {
		res.MeanHonestR = honestR / float64(n)
	}
	return res, nil
}
