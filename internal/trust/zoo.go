package trust

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// This file implements the rival trust models from the literature
// (PAPERS.md) behind the Model interface:
//
//   - "purge"   — recommendation purging by deviation test (Suresh Kumar
//     et al., arXiv 1201.2125): recommendations that deviate too far from
//     a reference value (the asker's own experience when it has enough,
//     else the claim median) are discarded before aggregation, so a
//     lying clique shouting 6.0 about a colluder is filtered out rather
//     than averaged in.
//   - "frtrust" — FRTRUST-style fuzzy reputation (Javanmardi et al.,
//     arXiv 1404.2632): direct score, reputation, history length and
//     subject load are fuzzified with triangular membership functions,
//     combined by a Mamdani rule base and defuzzified by centroid.
//   - "bawa"    — Bawa–Sharma reliability-weighted selection: direct
//     trust is discounted by the observed success rate (Laplace
//     smoothed), recommendations are weighted by recommender factor, and
//     the two blend by history confidence.
//
// All three are engine-backed: the Engine stores relationships,
// recommender factors and alliances (inheriting its deterministic
// string-ordered iteration) and, on each relationship's record, the
// observation tallies (counts of outcomes and positives) the rivals need
// but the paper's model does not.  A rival is a zooBase naming its score
// function of the sight below, so Trust and TrustOf are the Engine's,
// written once for every model.  Every float
// aggregation walks claims in the engine's presorted recommender order or
// fixed-size arrays, so results are bit-identical across runs, workers and
// shard counts.

// posThreshold splits outcomes into positive/negative at the scale
// midpoint for the reliability tallies.
const posThreshold = (MinScore + MaxScore) / 2

// zooBase is a rival model: an Engine scoring under the rival's function
// and tallying observations, plus the model identity.  A tally lives on
// the engine record of its (from, to, ctx) and is guarded by the engine's
// lock, so a Trust reads relationships and tallies under one read lock
// with one walk of the subject's run.
type zooBase struct {
	*Engine
	name   string
	params string
}

// rival names the score function Engine.Trust returns: the paper's Γ or
// a rival model's score of its sight.
type rival uint8

const (
	paper rival = iota
	rivalPurge
	rivalFuzzy
	rivalBawa
)

// zooModel is the constructor of the rival model name: own renders its
// own parameters, which its ModelParams lists after the shared ones.
func zooModel(name string, score rival, own string) func(Config) (Model, error) {
	return func(cfg Config) (Model, error) {
		params := cfg.paramString(cfg.Decay == nil) + "," + own
		eng, err := NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		eng.rival = score
		return &zooBase{Engine: eng, name: name, params: params}, nil
	}
}

func (m *zooBase) ModelName() string   { return m.name }
func (m *zooBase) ModelParams() string { return m.params }

// sight is what a rival model's Trust reads about its subject: Θ, the
// asker's tallies (how many outcomes it observed about the subject in the
// context, and how many were positive), every other recommender's claim,
// and the load — the observations recorded about the subject in the
// context by anyone, the FRTRUST input for how heavily it is used.
type sight struct {
	theta  float64
	n, pos int32
	claims []claim
	load   int32
}

// rivalTrust reads q's sight off run, the subject's incoming run in the
// context, and scores it: the asker's record in the run gives Θ and the
// asker's tallies, a walk over it the claims and the load.  Claims spill
// past a stack buffer to the heap.  Caller holds the lock.
func (e *Engine) rivalTrust(q query, run []edge, now float64) (float64, error) {
	own := e.lookup(run, q.x)
	var s sight
	var err error
	if s.theta, err = e.theta(own, q.ctx, now); err != nil {
		return 0, err
	}
	if own >= 0 {
		s.n, s.pos = e.relN[own], e.relPos[own]
	}
	var buf [claimBuf]claim
	if s.claims, s.load, err = e.claims(q, run, now, buf[:]); err != nil {
		return 0, err
	}
	// Direct calls, not a func value: an indirect call would move buf to
	// the heap on every Trust.
	switch e.rival {
	case rivalPurge:
		return purgeScore(&e.cfg, s), nil
	case rivalFuzzy:
		return fuzzyScore(s), nil
	default:
		return bawaScore(&e.cfg, s), nil
	}
}

// Export stamps the model identity and appends the tallies.
func (m *zooBase) Export() *Snapshot {
	snap := m.Engine.Export()
	snap.Model = m.name
	snap.ParamHash = ParamHash(m.name, m.params)
	m.mu.RLock()
	for ri, tallied := range m.relTally {
		if tallied {
			snap.Counts = append(snap.Counts, ObservationCount{
				From: m.ents[m.relFrom[ri]], To: m.ents[m.relTo[ri]], Ctx: m.ctxs[m.relCtx[ri]],
				N: m.relN[ri], Pos: m.relPos[ri],
			})
		}
	}
	m.mu.RUnlock()
	sort.Slice(snap.Counts, func(i, j int) bool {
		a, b := snap.Counts[i], snap.Counts[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Ctx < b.Ctx
	})
	return snap
}

// Import refuses snapshots taken under a different model, then merges
// engine state and tallies (overlapping tallies are replaced, like
// relationship records).  A tally whose relationship is not in the
// snapshot, or was pruned before the export, is kept on a tally-only
// record.
func (m *zooBase) Import(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("trust: nil snapshot")
	}
	if err := checkSnapshotModel(m.name, snap); err != nil {
		return err
	}
	for _, c := range snap.Counts {
		if c.N < 0 || c.Pos < 0 || c.Pos > c.N {
			return fmt.Errorf("trust: snapshot count %d/%d for %s→%s invalid", c.Pos, c.N, c.From, c.To)
		}
	}
	// The engine validates and installs relationship state; its own model
	// check expects the default stamp, so hand it an unstamped view.
	eng := *snap
	eng.Model, eng.ParamHash, eng.Counts = "", "", nil
	if err := m.Engine.Import(&eng); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range snap.Counts {
		xi, yi, ci := m.intern(c.From), m.intern(c.To), m.internCtx(c.Ctx)
		ri := m.lookup(m.run(yi, ci), xi)
		if ri < 0 {
			ri = m.link(xi, yi, ci)
		}
		m.relTally[ri] = true
		m.relN[ri], m.relPos[ri] = c.N, c.Pos
	}
	return nil
}

// score01 maps the [1,6] scale onto [0,1] for the fuzzy stage.
func score01(s float64) float64 { return (s - MinScore) / (MaxScore - MinScore) }

// ── "purge": recommendation purging by deviation test ────────────────────

const (
	purgeDeviation = 1.5 // max |claim − reference| a recommendation may show
	purgeDirectMin = 3   // own observations needed to trust Θ as the reference
)

// purgeScore filters recommendations by deviation from a reference before
// averaging.  With enough direct evidence the reference is the asker's
// own Θ — a clique cannot out-shout experience; without it, the claim
// median — a minority of liars cannot move the majority.  If every claim
// is purged, Ω falls back to the reference itself, never to the liars.
func purgeScore(cfg *Config, s sight) float64 {
	ref := s.theta
	if s.n < purgeDirectMin && len(s.claims) > 0 {
		ref = medianClaimValue(s.claims)
	}
	var sum float64
	kept := 0
	for _, cl := range s.claims {
		if math.Abs(cl.value-ref) > purgeDeviation {
			continue
		}
		sum += MinScore + (cl.value-MinScore)*cl.factor
		kept++
	}
	omega := ref
	if kept > 0 {
		omega = sum / float64(kept)
	}
	return clampScore(cfg.Alpha*s.theta + cfg.Beta*omega)
}

// medianClaimValue computes the median claim value.  Claims arrive in
// recommender-string order; values are re-sorted numerically, so the
// result is independent of who said what and deterministic.
func medianClaimValue(claims []claim) float64 {
	var buf [claimBuf]float64
	vals := buf[:0]
	for _, cl := range claims {
		vals = append(vals, cl.value)
	}
	slices.Sort(vals)
	mid := len(vals) / 2
	if len(vals)%2 == 1 {
		return vals[mid]
	}
	return (vals[mid-1] + vals[mid]) / 2
}

// ── "frtrust": fuzzy reputation scoring ──────────────────────────────────

const (
	fuzzyHistorySat = 4.0  // observations at which history confidence reaches ½
	fuzzyLoadSat    = 16.0 // subject observations at which load reaches ½
)

// fuzzyScore fuzzifies the evidence.  The crisp evidence input blends Θ and
// the factor-weighted claim mean by history confidence h = n/(n+sat);
// the load input saturates with total observations about the subject.
// A 3×3 Mamdani rule base maps (evidence, load) to {low, med, high}
// trust, defuzzified by centroid — heavy load degrades mid/high trust
// one step, FRTRUST's resource-congestion discount.
func fuzzyScore(s sight) float64 {
	omega := s.theta
	if len(s.claims) > 0 {
		var sum float64
		for _, cl := range s.claims {
			sum += MinScore + (cl.value-MinScore)*cl.factor
		}
		omega = sum / float64(len(s.claims))
	}
	h := float64(s.n) / (float64(s.n) + fuzzyHistorySat)
	evidence := h*score01(s.theta) + (1-h)*score01(omega)
	load := float64(s.load) / (float64(s.load) + fuzzyLoadSat)
	z := defuzzTrust(evidence, load)
	return clampScore(MinScore + (MaxScore-MinScore)*z)
}

// triangularDegrees evaluates the standard three-set Ruspini partition
// {low, med, high} of [0,1] at x.  Adjacent memberships sum to 1, which
// keeps the Mamdani output monotone in x under a monotone rule base.
func triangularDegrees(x float64) [3]float64 {
	return [3]float64{
		max(0, 1-2*x),
		max(0, 1-2*math.Abs(x-0.5)),
		max(0, 2*x-1),
	}
}

// defuzzTrust runs the rule base and centroid-defuzzifies to [0,1].
// Iteration is over fixed-size arrays in fixed order — bit-deterministic.
func defuzzTrust(evidence, load float64) float64 {
	me := triangularDegrees(evidence)
	ml := triangularDegrees(load)
	// rules[i][j] = output set for evidence level i under load level j.
	rules := [3][3]int{
		{0, 0, 0}, // low evidence → low trust at any load
		{1, 1, 0}, // medium evidence → medium, degraded under high load
		{2, 2, 1}, // high evidence → high, degraded under high load
	}
	centroids := [3]float64{1.0 / 6, 0.5, 5.0 / 6}
	var num, den float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			w := min(me[i], ml[j])
			num += w * centroids[rules[i][j]]
			den += w
		}
	}
	// den > 0 always: each partition has a positive membership somewhere.
	return num / den
}

// ── "bawa": reliability-weighted selection ───────────────────────────────

const reliabilityHistorySat = 2.0 // observations at which history confidence reaches ½

// bawaScore discounts direct trust by the Laplace-smoothed observed success
// rate ρ = (pos+1)/(n+2) — a resource that completes reliably keeps its
// score, a flaky one is pulled to the floor regardless of what it
// scored — and blends with factor-weighted recommendations by history
// confidence h = n/(n+sat).  A fresh identity (n = 0) is judged almost
// entirely on reputation, so whitewashing resets reliability to the
// uninformed prior instead of escaping it.
func bawaScore(cfg *Config, s sight) float64 {
	rho := (float64(s.pos) + 1) / (float64(s.n) + 2)
	direct := MinScore + (s.theta-MinScore)*rho
	omega := cfg.InitialScore
	var wsum, vsum float64
	for _, cl := range s.claims {
		wsum += cl.factor
		vsum += cl.factor * cl.value
	}
	if wsum > 0 {
		omega = vsum / wsum
	}
	h := float64(s.n) / (float64(s.n) + reliabilityHistorySat)
	return clampScore(h*direct + (1-h)*omega)
}

func init() {
	RegisterModel(ModelInfo{
		Name:        "purge",
		Description: "recommendation purging: deviation-test filtering of recommender input (Suresh Kumar et al.)",
		New:         zooModel("purge", rivalPurge, fmt.Sprintf("deviation=%g,directmin=%d", purgeDeviation, purgeDirectMin)),
	})
	RegisterModel(ModelInfo{
		Name:        "frtrust",
		Description: "FRTRUST-style fuzzy reputation: triangular membership + centroid defuzzification over score/history/load",
		New:         zooModel("frtrust", rivalFuzzy, fmt.Sprintf("historysat=%g,loadsat=%g", fuzzyHistorySat, fuzzyLoadSat)),
	})
	RegisterModel(ModelInfo{
		Name:        "bawa",
		Description: "Bawa–Sharma reliability-weighted selection: success-rate-discounted direct trust blended with weighted reputation",
		New:         zooModel("bawa", rivalBawa, fmt.Sprintf("historysat=%g", reliabilityHistorySat)),
	})
}

var _ Model = (*zooBase)(nil)
