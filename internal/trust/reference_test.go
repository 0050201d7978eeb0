package trust

import (
	"fmt"
	"math"
	"sort"
)

// refEngine is the original map-based Engine implementation, kept verbatim
// as the executable reference for the indexed rewrite: engine_equiv_test.go
// and FuzzEngineEquivalence drive both implementations with identical call
// sequences and require bit-identical scores (Ω sums contributions in
// recommender string order on both, so even the non-associative float
// additions agree).
type refRelationship struct {
	score  float64
	lastTx float64

	pendingSum   float64
	pendingCount int
}

type refRelKey struct {
	from EntityID
	to   EntityID
	ctx  Context
}

type refEngine struct {
	cfg     Config
	noDecay bool

	rels  map[refRelKey]*refRelationship
	rec   map[[2]EntityID]float64
	ally  map[[2]EntityID]bool
	peers map[EntityID]bool
}

func newRefEngine(cfg Config) (*refEngine, error) {
	noDecay := cfg.Decay == nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &refEngine{
		cfg:     cfg,
		noDecay: noDecay,
		rels:    make(map[refRelKey]*refRelationship),
		rec:     make(map[[2]EntityID]float64),
		ally:    make(map[[2]EntityID]bool),
		peers:   make(map[EntityID]bool),
	}, nil
}

func (e *refEngine) SetDirect(x, y EntityID, c Context, score, now float64) error {
	if math.IsNaN(score) || score < MinScore || score > MaxScore {
		return fmt.Errorf("trust: score %g outside [%g,%g]", score, MinScore, MaxScore)
	}
	e.peers[x], e.peers[y] = true, true
	e.rels[refRelKey{x, y, c}] = &refRelationship{score: score, lastTx: now}
	return nil
}

func (e *refEngine) DeclareAlliance(a, b EntityID) {
	e.peers[a], e.peers[b] = true, true
	e.ally[[2]EntityID{a, b}] = true
	e.ally[[2]EntityID{b, a}] = true
}

func (e *refEngine) Allied(a, b EntityID) bool {
	return e.ally[[2]EntityID{a, b}]
}

func (e *refEngine) SetRecommenderFactor(z, y EntityID, r float64) error {
	if math.IsNaN(r) || r < 0 || r > 1 {
		return fmt.Errorf("trust: recommender factor %g outside [0,1]", r)
	}
	e.peers[z], e.peers[y] = true, true
	e.rec[[2]EntityID{z, y}] = r
	return nil
}

func (e *refEngine) recommenderFactor(z, y EntityID) float64 {
	if r, ok := e.rec[[2]EntityID{z, y}]; ok {
		return r
	}
	if e.ally[[2]EntityID{z, y}] {
		return 0.1
	}
	return 1.0
}

func (e *refEngine) Observe(x, y EntityID, c Context, outcome, now float64) (bool, error) {
	if math.IsNaN(outcome) || outcome < MinScore || outcome > MaxScore {
		return false, fmt.Errorf("trust: outcome %g outside [%g,%g]", outcome, MinScore, MaxScore)
	}
	e.peers[x], e.peers[y] = true, true
	k := refRelKey{x, y, c}
	rel, ok := e.rels[k]
	if !ok {
		rel = &refRelationship{score: e.cfg.InitialScore, lastTx: now}
		e.rels[k] = rel
	}
	rel.pendingSum += outcome
	rel.pendingCount++
	rel.lastTx = now
	if rel.pendingCount < e.cfg.UpdateBatch {
		return false, nil
	}
	batchMean := rel.pendingSum / float64(rel.pendingCount)
	rel.pendingSum, rel.pendingCount = 0, 0
	s := e.cfg.Smoothing
	rel.score = clampScore((1-s)*rel.score + s*batchMean)
	return true, nil
}

func (e *refEngine) Direct(x, y EntityID, c Context, now float64) (float64, error) {
	rel, ok := e.rels[refRelKey{x, y, c}]
	if !ok {
		return e.cfg.InitialScore, nil
	}
	d := e.cfg.Decay(now-rel.lastTx, c)
	if err := validateDecayOutput(d); err != nil {
		return 0, err
	}
	return MinScore + (rel.score-MinScore)*d, nil
}

func (e *refEngine) Reputation(x, y EntityID, c Context, now float64) (float64, error) {
	type contribution struct {
		from  EntityID
		value float64
	}
	var contribs []contribution
	for k, rel := range e.rels {
		if k.to != y || k.ctx != c || k.from == x || k.from == y {
			continue
		}
		d := e.cfg.Decay(now-rel.lastTx, c)
		if err := validateDecayOutput(d); err != nil {
			return 0, err
		}
		r := e.recommenderFactor(k.from, y)
		if r < e.cfg.PurgeBelow {
			continue
		}
		contribs = append(contribs, contribution{k.from, MinScore + (rel.score-MinScore)*d*r})
	}
	if len(contribs) == 0 {
		return e.cfg.InitialScore, nil
	}
	sort.Slice(contribs, func(i, j int) bool { return contribs[i].from < contribs[j].from })
	var sum float64
	for _, ct := range contribs {
		sum += ct.value
	}
	return sum / float64(len(contribs)), nil
}

func (e *refEngine) Recommendation(z, y EntityID, c Context, now float64) (float64, bool, error) {
	rel, ok := e.rels[refRelKey{z, y, c}]
	if !ok {
		return 0, false, nil
	}
	d := e.cfg.Decay(now-rel.lastTx, c)
	if err := validateDecayOutput(d); err != nil {
		return 0, false, err
	}
	return MinScore + (rel.score-MinScore)*d, true, nil
}

func (e *refEngine) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	theta, err := e.Direct(x, y, c, now)
	if err != nil {
		return 0, err
	}
	omega, err := e.Reputation(x, y, c, now)
	if err != nil {
		return 0, err
	}
	return clampScore(e.cfg.Alpha*theta + e.cfg.Beta*omega), nil
}

func (e *refEngine) Entities() []EntityID {
	out := make([]EntityID, 0, len(e.peers))
	for id := range e.peers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e *refEngine) Relationships() int { return len(e.rels) }

func (e *refEngine) Prune(before float64) int {
	removed := 0
	for k, rel := range e.rels {
		if rel.pendingCount > 0 || rel.lastTx >= before {
			continue
		}
		delete(e.rels, k)
		removed++
	}
	return removed
}

// Export mirrors Engine.Export for snapshot-level equivalence checks.
func (e *refEngine) Export() *Snapshot {
	snap := &Snapshot{
		Version:   snapshotVersion,
		Model:     DefaultModel,
		ParamHash: ParamHash(DefaultModel, e.cfg.paramString(e.noDecay)),
	}
	for k, rel := range e.rels {
		snap.Relationships = append(snap.Relationships, RelationshipRecord{
			From: k.from, To: k.to, Ctx: k.ctx,
			Score: rel.score, LastTx: rel.lastTx,
		})
	}
	for k, r := range e.rec {
		snap.Recommenders = append(snap.Recommenders, RecommenderRecord{
			From: k[0], About: k[1], Factor: r,
		})
	}
	seen := map[[2]EntityID]bool{}
	for k := range e.ally {
		a, b := k[0], k[1]
		if a > b {
			a, b = b, a
		}
		if !seen[[2]EntityID{a, b}] {
			seen[[2]EntityID{a, b}] = true
			snap.Alliances = append(snap.Alliances, [2]EntityID{a, b})
		}
	}
	sort.Slice(snap.Relationships, func(i, j int) bool {
		a, b := snap.Relationships[i], snap.Relationships[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Ctx < b.Ctx
	})
	sort.Slice(snap.Recommenders, func(i, j int) bool {
		a, b := snap.Recommenders[i], snap.Recommenders[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.About < b.About
	})
	sort.Slice(snap.Alliances, func(i, j int) bool {
		a, b := snap.Alliances[i], snap.Alliances[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return snap
}
