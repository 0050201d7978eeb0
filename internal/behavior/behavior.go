// Package behavior turns raw transaction telemetry into the trust-outcome
// scores the engine consumes — the paper's closing future-work item:
// "mechanisms for determining trust values from ongoing transactions"
// (Section 7).
//
// A Scorer maps an observed TransactionRecord (deadline adherence, result
// integrity, policy violations, security incidents) onto the paper's
// numeric trust scale [1,6].  The default scorer is deliberately simple
// and auditable: it starts from perfect trust and applies multiplicative
// penalties per violation class, with hard floors for the incidents the
// paper's threat scenarios call out (snooping by the resource,
// interference by the task).
package behavior

import (
	"fmt"
	"math"

	"gridtrust/internal/trust"
)

// TransactionRecord is the telemetry for one completed Grid transaction,
// as a monitoring agent would observe it.
type TransactionRecord struct {
	// PromisedDuration and ActualDuration measure timeliness; a zero
	// PromisedDuration means no deadline was agreed.
	PromisedDuration float64
	ActualDuration   float64

	// Completed is false when the task was dropped or crashed on the
	// resource side.
	Completed bool

	// ResultIntegrityOK is false when output verification failed (wrong
	// or tampered results).
	ResultIntegrityOK bool

	// PolicyViolations counts administrative violations (quota abuse,
	// unauthorized activity requests).
	PolicyViolations int

	// SecurityIncident marks detected snooping/interference — the
	// behaviour the paper's sandboxing and encryption guard against.
	SecurityIncident bool
}

// Scorer maps telemetry to an outcome score on [1,6].
type Scorer interface {
	Score(rec TransactionRecord) (float64, error)
}

// Weights parameterise the default scorer.  The zero value is invalid;
// use DefaultWeights.
type Weights struct {
	// LatenessHalf is the relative lateness ((actual−promised)/promised)
	// at which the timeliness factor drops to 0.5.
	LatenessHalf float64
	// PolicyPenalty is the multiplicative factor applied per policy
	// violation (e.g. 0.7 → two violations retain 49% of the score).
	PolicyPenalty float64
	// IncompleteFactor scales the score when the task did not complete.
	IncompleteFactor float64
	// IntegrityFactor scales the score when result integrity failed.
	IntegrityFactor float64
	// IncidentCeiling caps the score when a security incident occurred;
	// incidents are trust-destroying regardless of timeliness.
	IncidentCeiling float64
}

// DefaultWeights are calibrated so that: a clean on-time transaction
// scores 6; modest lateness erodes toward the middle of the scale; any
// security incident caps the outcome at the bottom level.
func DefaultWeights() Weights {
	return Weights{
		LatenessHalf:     1.0,
		PolicyPenalty:    0.7,
		IncompleteFactor: 0.4,
		IntegrityFactor:  0.3,
		IncidentCeiling:  trust.MinScore,
	}
}

// validate rejects unusable weights.
func (w Weights) validate() error {
	switch {
	case w.LatenessHalf <= 0:
		return fmt.Errorf("behavior: LatenessHalf must be positive, got %g", w.LatenessHalf)
	case w.PolicyPenalty <= 0 || w.PolicyPenalty > 1:
		return fmt.Errorf("behavior: PolicyPenalty must be in (0,1], got %g", w.PolicyPenalty)
	case w.IncompleteFactor < 0 || w.IncompleteFactor > 1:
		return fmt.Errorf("behavior: IncompleteFactor must be in [0,1], got %g", w.IncompleteFactor)
	case w.IntegrityFactor < 0 || w.IntegrityFactor > 1:
		return fmt.Errorf("behavior: IntegrityFactor must be in [0,1], got %g", w.IntegrityFactor)
	case w.IncidentCeiling < trust.MinScore || w.IncidentCeiling > trust.MaxScore:
		return fmt.Errorf("behavior: IncidentCeiling outside the trust scale: %g", w.IncidentCeiling)
	}
	return nil
}

// DefaultScorer is the rule-based scorer described in the package
// comment.
type DefaultScorer struct {
	w Weights
}

// NewScorer builds a DefaultScorer from weights.
func NewScorer(w Weights) (*DefaultScorer, error) {
	if err := w.validate(); err != nil {
		return nil, err
	}
	return &DefaultScorer{w: w}, nil
}

// MustDefaultScorer returns a scorer with DefaultWeights.
func MustDefaultScorer() *DefaultScorer {
	s, err := NewScorer(DefaultWeights())
	if err != nil {
		panic(err)
	}
	return s
}

// Score implements Scorer.  The result is always on [1,6].
func (s *DefaultScorer) Score(rec TransactionRecord) (float64, error) {
	if rec.ActualDuration < 0 || rec.PromisedDuration < 0 {
		return 0, fmt.Errorf("behavior: negative durations %g/%g",
			rec.PromisedDuration, rec.ActualDuration)
	}
	if math.IsNaN(rec.ActualDuration) || math.IsNaN(rec.PromisedDuration) {
		return 0, fmt.Errorf("behavior: NaN duration")
	}

	// Quality q on [0,1]: the fraction of the trust span above the floor
	// the transaction earns.
	q := 1.0

	// Timeliness: relative lateness L shrinks q as 1/(1 + L/half).
	if rec.PromisedDuration > 0 && rec.ActualDuration > rec.PromisedDuration {
		lateness := (rec.ActualDuration - rec.PromisedDuration) / rec.PromisedDuration
		q *= 1 / (1 + lateness/s.w.LatenessHalf)
	}
	if !rec.Completed {
		q *= s.w.IncompleteFactor
	}
	if !rec.ResultIntegrityOK {
		q *= s.w.IntegrityFactor
	}
	for i := 0; i < rec.PolicyViolations; i++ {
		q *= s.w.PolicyPenalty
	}

	score := trust.MinScore + q*(trust.MaxScore-trust.MinScore)
	if rec.SecurityIncident && score > s.w.IncidentCeiling {
		score = s.w.IncidentCeiling
	}
	// Numerical safety: q ∈ [0,1] keeps score on scale, but guard anyway.
	if score < trust.MinScore {
		score = trust.MinScore
	}
	if score > trust.MaxScore {
		score = trust.MaxScore
	}
	return score, nil
}

// Transaction is one scored Grid-level interaction, ready for a trust
// model's Observe: truster From interacted with trustee To in context Ctx
// at time Now and judged the behaviour Outcome on the [1,6] scale.
type Transaction struct {
	From    trust.EntityID
	To      trust.EntityID
	Ctx     trust.Context
	Outcome float64
	Now     float64
}

// ScoreToTransaction packages a scored record as an engine transaction.
func ScoreToTransaction(s Scorer, rec TransactionRecord, from, to trust.EntityID, ctx trust.Context, now float64) (Transaction, error) {
	outcome, err := s.Score(rec)
	if err != nil {
		return Transaction{}, err
	}
	return Transaction{From: from, To: to, Ctx: ctx, Outcome: outcome, Now: now}, nil
}
