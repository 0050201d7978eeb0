package trust

import (
	"fmt"
	"sync"
)

// Transaction is one completed Grid-level interaction observed by a
// monitoring agent: truster x interacted with trustee y in context c at
// time Now and judged the behaviour Outcome on the [1,6] scale.
type Transaction struct {
	From    EntityID
	To      EntityID
	Ctx     Context
	Outcome float64
	Now     float64
}

// UpdateFunc is invoked by an Agent whenever a committed observation
// changes y's stored trust; score is the freshly computed Γ(x,y,now,c).
// The TRMS registers a hook here that quantises the score and writes the
// grid trust-level table ("if the new trust values they form are different
// from the existing values in the tables, the agents update the table",
// Section 3.1).
type UpdateFunc func(x, y EntityID, c Context, score float64)

// Agent is the CD/RD monitoring agent of Figure 1.  Apply feeds one
// completed transaction to the trust model and fires the update hook when
// the model commits a revised trust level, on the caller's goroutine.
type Agent struct {
	Engine   Model      // any registered trust model; the default is *Engine
	OnUpdate UpdateFunc // optional

	mu        sync.Mutex
	processed int
	committed int
	rejected  int
}

// NewAgent wires an agent to a trust model.
func NewAgent(e Model, onUpdate UpdateFunc) (*Agent, error) {
	if e == nil {
		return nil, fmt.Errorf("trust: agent requires an engine")
	}
	return &Agent{Engine: e, OnUpdate: onUpdate}, nil
}

// Apply observes one transaction and, if that revised the stored trust
// level, computes Γ and runs the update hook.  It holds the agent's lock
// throughout, so concurrent calls reach the model and the hook in one
// order and a later transaction's hook never runs before an earlier
// one's.  A malformed transaction is counted as rejected and its error
// returned.
func (a *Agent) Apply(tx Transaction) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.processed++
	changed, err := a.Engine.Observe(tx.From, tx.To, tx.Ctx, tx.Outcome, tx.Now)
	if err != nil {
		a.rejected++
		return err
	}
	if !changed {
		return nil
	}
	a.committed++
	if a.OnUpdate != nil {
		score, err := a.Engine.Trust(tx.From, tx.To, tx.Ctx, tx.Now)
		if err != nil {
			return err
		}
		a.OnUpdate(tx.From, tx.To, tx.Ctx, score)
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
