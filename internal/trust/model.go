package trust

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Model is the trust policy interface: everything a consumer (core.TRMS,
// the simulation kernels, the fault studies, gridtrustd persistence) needs
// from a trust implementation.  The paper's Engine is the registered
// default ("paper"); rival models from the literature register alongside
// it and are selected by name through NewModel.
//
// Contract every implementation must honor:
//
//   - Observe / Trust / Direct / Recommendation semantics follow the
//     Engine's documented behavior (scores on [MinScore, MaxScore],
//     outcomes validated, strangers get the configured initial score).
//   - Handles: Entity and Context mint a dense handle for a name, stable
//     for the model's life.  Minting is a write — it interns the name
//     under the write lock — but changes no score.  ObserveOf and TrustOf
//     answer exactly as Observe and Trust do on the handles' names, and
//     return ErrHandle, never panic, for a handle that is the zero value
//     or out of the model's range.  A handle is valid only in the model
//     that minted it.  A query by name never interns.
//   - Determinism: identical call sequences produce bit-identical floats.
//     Any aggregation over multiple relationships must iterate in a
//     reproducible order — the Engine's incoming run of each subject in
//     each context is presorted by recommender EntityID string exactly
//     for this, and rival models reuse it via claims.  No map iteration may
//     influence a result.
//   - Queries only read: Trust, TrustOf, Direct and Recommendation leave
//     every later result unchanged, so between two mutating calls
//     (Observe, ObserveOf, SetRecommenderFactor, Import, and the Engine's
//     SetDirect and DeclareAlliance) a caller may keep an answer instead
//     of asking again.
//   - Trust reads only its subject (see Trust below), so an Observe about
//     (y, c) leaves every Trust about another subject or context
//     unchanged; internal/sim's model view keeps its answers per
//     (context, subject) on that promise, and TestTrustReadsOnlyItsSubject
//     holds every registered model to it.
//   - Snapshot round-trip: Export must capture every score-relevant
//     datum; Import(Export()) into a fresh instance of the same model
//     must reproduce identical Trust values.  Snapshots are stamped with
//     ModelName/ParamHash; Import under a different model returns
//     ErrModelMismatch.
//   - Concurrency: all methods are safe for concurrent use.
//
// Every registered model is backed by an *Engine and promotes its other
// methods (SetDirect, DeclareAlliance, Entities, Relationships, Prune),
// which callers reach on the concrete type.
type Model interface {
	// ModelName is the registered name ("paper", "purge", ...).
	ModelName() string
	// ModelParams is a canonical, human-readable parameter string; equal
	// configurations yield equal strings (it feeds ParamHash).
	ModelParams() string

	Entity(EntityID) Ent
	Context(Context) Ctx

	Observe(x, y EntityID, c Context, outcome, now float64) (bool, error)
	ObserveOf(x, y Ent, c Ctx, outcome, now float64) (bool, error)
	// Trust scores subject y as asker x sees it in context c at time now.
	// It may read only: the relationships into y in c (x's own among
	// them), x's observation tallies about (y, c), the total load
	// observed on (y, c), the recommender factors and alliances about y,
	// and the configuration.
	Trust(x, y EntityID, c Context, now float64) (float64, error)
	TrustOf(x, y Ent, c Ctx, now float64) (float64, error)
	Direct(x, y EntityID, c Context, now float64) (float64, error)
	Recommendation(z, y EntityID, c Context, now float64) (float64, bool, error)
	SetRecommenderFactor(z, y EntityID, r float64) error

	Export() *Snapshot
	Import(*Snapshot) error
}

// DefaultModel names the paper's own trust function.
const DefaultModel = "paper"

// ModelInfo describes one registered trust model.
type ModelInfo struct {
	// Name is the registry key used by -trust-model flags and snapshots.
	Name string
	// Description is a one-line summary for -list output.
	Description string
	// New builds an instance from a Config.
	New func(Config) (Model, error)
}

var (
	modelMu  sync.RWMutex
	modelReg = map[string]ModelInfo{}
)

// RegisterModel adds a model to the registry.  It panics on duplicate or
// empty names — registration is an init-time programming act, not a
// runtime event.
func RegisterModel(info ModelInfo) {
	if info.Name == "" || info.New == nil {
		panic("trust: RegisterModel requires a name and a constructor")
	}
	modelMu.Lock()
	defer modelMu.Unlock()
	if _, dup := modelReg[info.Name]; dup {
		panic(fmt.Sprintf("trust: model %q registered twice", info.Name))
	}
	modelReg[info.Name] = info
}

// Models returns the registered models sorted by name — a deterministic
// listing for -list output and zoo sweeps.
func Models() []ModelInfo {
	modelMu.RLock()
	defer modelMu.RUnlock()
	out := make([]ModelInfo, 0, len(modelReg))
	for _, info := range modelReg {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ModelNames returns the sorted registered model names.
func ModelNames() []string {
	models := Models()
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return names
}

// KnownModel reports whether name is registered ("" counts: it resolves
// to the default).
func KnownModel(name string) bool {
	if name == "" {
		return true
	}
	modelMu.RLock()
	defer modelMu.RUnlock()
	_, ok := modelReg[name]
	return ok
}

// NewModel builds the named trust model from cfg.  The empty name selects
// DefaultModel, so zero-valued configurations everywhere keep the paper's
// engine bit-identically.
func NewModel(name string, cfg Config) (Model, error) {
	if name == "" {
		name = DefaultModel
	}
	modelMu.RLock()
	info, ok := modelReg[name]
	modelMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("trust: unknown model %q (registered: %v)", name, ModelNames())
	}
	return info.New(cfg)
}

// ParamHash condenses a model identity (name + canonical parameters) into
// a short stable hex string for snapshot/meta pinning.
func ParamHash(name, params string) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	h.Write([]byte{'|'})
	h.Write([]byte(params))
	return fmt.Sprintf("%016x", h.Sum64())
}

func init() {
	RegisterModel(ModelInfo{
		Name:        DefaultModel,
		Description: "the paper's Γ = α·Θ + β·Ω with floor-anchored decayed reputation",
		New: func(cfg Config) (Model, error) {
			return NewEngine(cfg)
		},
	})
}

// ── Engine as the default Model ──────────────────────────────────────────

// ModelName identifies the Engine as the paper's own trust function.
func (e *Engine) ModelName() string { return DefaultModel }

// ModelParams renders the engine's configuration canonically.  The decay
// function is policy code, not a parameter value; only whether one is
// installed is represented.
func (e *Engine) ModelParams() string { return e.cfg.paramString(e.noDecay) }

// paramString is the canonical shared-parameter rendering every
// engine-backed model embeds in its ModelParams.
func (c Config) paramString(noDecay bool) string {
	decay := "custom"
	if noDecay {
		decay = "none"
	}
	return fmt.Sprintf("alpha=%g,beta=%g,init=%g,batch=%d,smooth=%g,purgebelow=%g,decay=%s",
		c.Alpha, c.Beta, c.InitialScore, c.UpdateBatch, c.Smoothing, c.PurgeBelow, decay)
}

// claim is one recommender's decayed statement about a trustee: the
// floor-anchored RTT(z,y,c)·Υ value and the recommender trust factor
// R(z,y) the consumer may weight it by.
type claim struct {
	value  float64
	factor float64
}

// claimBuf sizes the claim buffer a caller keeps on its stack; a subject
// with more recommenders in one context spills to the heap.
const claimBuf = 16

// claims appends to buf every recommender claim in run, q's subject's
// incoming run in q's context, excluding the asker, the subject itself and
// tally-only records, in recommender EntityID string order — the
// deterministic iteration order rival models inherit from the engine's
// presorted runs.  It also returns the subject's load: the
// sum of every tally in the run, the asker's and the subject's included.
// Caller holds the lock.
func (e *Engine) claims(q query, run []edge, now float64, buf []claim) ([]claim, int32, error) {
	out := buf[:0]
	var load int32
	for _, ed := range run {
		load += e.relN[ed.rel]
		if ed.peer == q.x || ed.peer == q.y || !e.relLive[ed.rel] {
			continue
		}
		d, err := e.decay(now-e.relLastTx[ed.rel], q.ctx)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, claim{
			value:  MinScore + (e.relScore[ed.rel]-MinScore)*d,
			factor: e.recommenderFactor(ed.peer, q.y),
		})
	}
	return out, load, nil
}

var _ Model = (*Engine)(nil)
