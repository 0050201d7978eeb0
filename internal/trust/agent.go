package trust

import (
	"fmt"
	"sync"
)

// Agent is the CD/RD monitoring agent of Figure 1.  Apply feeds one
// completed transaction to the trust model and, when the model commits a
// revised trust level, hands the fresh Γ to the caller's hook, on the
// caller's goroutine.  The TRMS's hook quantises the score and writes the
// grid trust-level table ("if the new trust values they form are
// different from the existing values in the tables, the agents update the
// table", Section 3.1).
type Agent struct {
	Model Model // any registered trust model; the default is *Engine

	mu        sync.Mutex
	processed int
	committed int
	rejected  int
}

// NewAgent wires an agent to a trust model.
func NewAgent(m Model) (*Agent, error) {
	if m == nil {
		return nil, fmt.Errorf("trust: agent requires a model")
	}
	return &Agent{Model: m}, nil
}

// Apply observes one outcome of x about y in context c at time now, on
// handles the agent's model minted, and, if that revised the stored trust
// level, computes Γ and calls then with it (when then is non-nil).  It
// holds the agent's lock throughout, so concurrent calls reach the model
// and their hooks in one order and a later transaction's hook never runs
// before an earlier one's.  A malformed transaction is counted as
// rejected and its error returned.
func (a *Agent) Apply(x, y Ent, c Ctx, outcome, now float64, then func(score float64)) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.processed++
	changed, err := a.Model.ObserveOf(x, y, c, outcome, now)
	if err != nil {
		a.rejected++
		return err
	}
	if !changed {
		return nil
	}
	a.committed++
	if then != nil {
		score, err := a.Model.TrustOf(x, y, c, now)
		if err != nil {
			return err
		}
		then(score)
	}
	return nil
}

// Stats reports how many transactions the agent has processed, how many
// resulted in committed trust-level changes, and how many were rejected.
func (a *Agent) Stats() (processed, committed, rejected int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.processed, a.committed, a.rejected
}
