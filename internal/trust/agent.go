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

// Agent is the CD/RD monitoring agent of Figure 1.  It consumes completed
// transactions from a channel, feeds them to the trust engine, and fires
// the update hook when the engine commits a revised trust level.  Run the
// agent with go a.Run(); stop it by closing the input channel.
type Agent struct {
	Name     string
	Engine   Model // any registered trust model; the default is *Engine
	In       <-chan Transaction
	OnUpdate UpdateFunc // optional

	mu        sync.Mutex
	processed int
	committed int
	errs      []error
}

// NewAgent wires an agent to a trust model and input channel.
func NewAgent(name string, e Model, in <-chan Transaction, onUpdate UpdateFunc) (*Agent, error) {
	if e == nil {
		return nil, fmt.Errorf("trust: agent %q requires an engine", name)
	}
	if in == nil {
		return nil, fmt.Errorf("trust: agent %q requires an input channel", name)
	}
	return &Agent{Name: name, Engine: e, In: in, OnUpdate: onUpdate}, nil
}

// Run processes transactions until the input channel closes.  It never
// panics on bad transactions; malformed outcomes are counted as errors and
// retrievable via Stats.
//
// A transaction is counted only after its update hook has returned:
// core.TRMS.Drain waits on the processed count, and its callers read the
// trust table the hook writes.
func (a *Agent) Run() {
	for tx := range a.In {
		changed, err := a.Engine.Observe(tx.From, tx.To, tx.Ctx, tx.Outcome, tx.Now)
		if err == nil && changed && a.OnUpdate != nil {
			score, terr := a.Engine.Trust(tx.From, tx.To, tx.Ctx, tx.Now)
			if terr == nil {
				a.OnUpdate(tx.From, tx.To, tx.Ctx, score)
			}
		}
		a.mu.Lock()
		a.processed++
		if err != nil {
			a.errs = append(a.errs, err)
		} else if changed {
			a.committed++
		}
		a.mu.Unlock()
	}
}

// Stats reports how many transactions the agent has processed, how many
// resulted in committed trust-level changes, and how many were rejected.
func (a *Agent) Stats() (processed, committed, rejected int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.processed, a.committed, len(a.errs)
}

// Errors returns a copy of the accumulated observation errors.
func (a *Agent) Errors() []error {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]error, len(a.errs))
	copy(out, a.errs)
	return out
}
