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
// string-ordered iteration), and zooBase layers the per-relationship
// observation tallies (counts of outcomes and positives) the rivals need
// but the paper's model does not.  Every float aggregation walks claims
// in the engine's presorted recommender order or fixed-size arrays, so
// results are bit-identical across runs, workers and shard counts.

// posThreshold splits outcomes into positive/negative at the scale
// midpoint for the reliability tallies.
const posThreshold = (MinScore + MaxScore) / 2

type obsVal struct {
	n   int32
	pos int32
}

// zooBase wraps an Engine with observation tallies and the model
// identity plumbing shared by every rival model.  The tallies are keyed
// by interned indices and guarded by the engine's lock, so a Trust reads
// relationships and tallies under one read lock with one name lookup.
type zooBase struct {
	*Engine
	name   string
	params string

	obs     map[[3]int32]obsVal // (from, to, ctx) → outcomes observed
	loadCnt map[[2]int32]int32  // (to, ctx) → outcomes observed by anyone
}

func newZooBase(name, params string, cfg Config) (*zooBase, error) {
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &zooBase{
		Engine:  eng,
		name:    name,
		params:  params,
		obs:     make(map[[3]int32]obsVal),
		loadCnt: make(map[[2]int32]int32),
	}, nil
}

func (m *zooBase) ModelName() string   { return m.name }
func (m *zooBase) ModelParams() string { return m.params }

// Observe records the outcome in the engine and tallies it, under one
// write lock.
func (m *zooBase) Observe(x, y EntityID, c Context, outcome, now float64) (bool, error) {
	if err := checkOutcome(outcome); err != nil {
		return false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	xi, yi, ci := m.intern(x), m.intern(y), m.internCtx(c)
	changed := m.observe(xi, yi, ci, outcome, now)
	v := m.obs[[3]int32{xi, yi, ci}]
	v.n++
	if outcome >= posThreshold {
		v.pos++
	}
	m.obs[[3]int32{xi, yi, ci}] = v
	m.loadCnt[[2]int32{yi, ci}]++
	return changed, nil
}

// counts returns how many outcomes the asker has observed about the
// subject in the context, and how many were positive.  Caller holds the
// lock.
func (m *zooBase) counts(q query) (n, pos int32) {
	v := m.obs[[3]int32{q.x, q.y, q.c}]
	return v.n, v.pos
}

// load returns the total observations recorded about the subject in the
// context by anyone — the FRTRUST "load" input: how heavily the subject
// is being used.  Caller holds the lock.
func (m *zooBase) load(q query) int32 {
	return m.loadCnt[[2]int32{q.y, q.c}]
}

// Export stamps the model identity and appends the tallies.
func (m *zooBase) Export() *Snapshot {
	snap := m.Engine.Export()
	snap.Model = m.name
	snap.ParamHash = ParamHash(m.name, m.params)
	m.mu.RLock()
	for k, v := range m.obs {
		snap.Counts = append(snap.Counts, ObservationCount{
			From: m.ents[k[0]], To: m.ents[k[1]], Ctx: m.ctxs[k[2]], N: v.n, Pos: v.pos,
		})
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
// relationship records).
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
		k := [3]int32{xi, yi, ci}
		old := m.obs[k]
		m.obs[k] = obsVal{n: c.N, pos: c.Pos}
		m.loadCnt[[2]int32{yi, ci}] += c.N - old.n
	}
	return nil
}

// score01 maps the [1,6] scale onto [0,1] for the fuzzy stage.
func score01(s float64) float64 { return (s - MinScore) / (MaxScore - MinScore) }

// ── "purge": recommendation purging by deviation test ────────────────────

type purgeModel struct {
	*zooBase
	deviation float64 // max |claim − reference| a recommendation may show
	directMin int32   // own observations needed to trust Θ as the reference
}

const (
	purgeDeviation = 1.5
	purgeDirectMin = 3
)

func newPurgeModel(cfg Config) (Model, error) {
	params := fmt.Sprintf("%s,deviation=%g,directmin=%d",
		cfg.paramString(cfg.Decay == nil), purgeDeviation, purgeDirectMin)
	base, err := newZooBase("purge", params, cfg)
	if err != nil {
		return nil, err
	}
	return &purgeModel{zooBase: base, deviation: purgeDeviation, directMin: purgeDirectMin}, nil
}

// Trust filters recommendations by deviation from a reference before
// averaging.  With enough direct evidence the reference is the asker's
// own Θ — a clique cannot out-shout experience; without it, the claim
// median — a minority of liars cannot move the majority.  If every claim
// is purged, Ω falls back to the reference itself, never to the liars.
func (m *purgeModel) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	q := m.resolve(x, y, c)
	theta, err := m.direct(q, now)
	if err != nil {
		return 0, err
	}
	var buf [claimBuf]claim
	claims, err := m.claims(q, now, buf[:])
	if err != nil {
		return 0, err
	}
	n, _ := m.counts(q)
	ref := theta
	if n < m.directMin && len(claims) > 0 {
		ref = medianClaimValue(claims)
	}
	var sum float64
	kept := 0
	for _, cl := range claims {
		if math.Abs(cl.value-ref) > m.deviation {
			continue
		}
		sum += MinScore + (cl.value-MinScore)*cl.factor
		kept++
	}
	omega := ref
	if kept > 0 {
		omega = sum / float64(kept)
	}
	return clampScore(m.cfg.Alpha*theta + m.cfg.Beta*omega), nil
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

type fuzzyModel struct {
	*zooBase
	historySat float64 // observations at which history confidence reaches ½
	loadSat    float64 // subject observations at which load reaches ½
}

const (
	fuzzyHistorySat = 4.0
	fuzzyLoadSat    = 16.0
)

func newFuzzyModel(cfg Config) (Model, error) {
	params := fmt.Sprintf("%s,historysat=%g,loadsat=%g",
		cfg.paramString(cfg.Decay == nil), fuzzyHistorySat, fuzzyLoadSat)
	base, err := newZooBase("frtrust", params, cfg)
	if err != nil {
		return nil, err
	}
	return &fuzzyModel{zooBase: base, historySat: fuzzyHistorySat, loadSat: fuzzyLoadSat}, nil
}

// Trust fuzzifies the evidence.  The crisp evidence input blends Θ and
// the factor-weighted claim mean by history confidence h = n/(n+sat);
// the load input saturates with total observations about the subject.
// A 3×3 Mamdani rule base maps (evidence, load) to {low, med, high}
// trust, defuzzified by centroid — heavy load degrades mid/high trust
// one step, FRTRUST's resource-congestion discount.
func (m *fuzzyModel) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	q := m.resolve(x, y, c)
	theta, err := m.direct(q, now)
	if err != nil {
		return 0, err
	}
	var buf [claimBuf]claim
	claims, err := m.claims(q, now, buf[:])
	if err != nil {
		return 0, err
	}
	omega := theta
	if len(claims) > 0 {
		var sum float64
		for _, cl := range claims {
			sum += MinScore + (cl.value-MinScore)*cl.factor
		}
		omega = sum / float64(len(claims))
	}
	n, _ := m.counts(q)
	h := float64(n) / (float64(n) + m.historySat)
	evidence := h*score01(theta) + (1-h)*score01(omega)
	ny := m.load(q)
	load := float64(ny) / (float64(ny) + m.loadSat)
	z := defuzzTrust(evidence, load)
	return clampScore(MinScore + (MaxScore-MinScore)*z), nil
}

// triangularDegrees evaluates the standard three-set Ruspini partition
// {low, med, high} of [0,1] at x.  Adjacent memberships sum to 1, which
// keeps the Mamdani output monotone in x under a monotone rule base.
func triangularDegrees(x float64) [3]float64 {
	return [3]float64{
		math.Max(0, 1-2*x),
		math.Max(0, 1-2*math.Abs(x-0.5)),
		math.Max(0, 2*x-1),
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
			w := math.Min(me[i], ml[j])
			num += w * centroids[rules[i][j]]
			den += w
		}
	}
	// den > 0 always: each partition has a positive membership somewhere.
	return num / den
}

// ── "bawa": reliability-weighted selection ───────────────────────────────

type reliabilityModel struct {
	*zooBase
	historySat float64 // observations at which history confidence reaches ½
}

const reliabilityHistorySat = 2.0

func newReliabilityModel(cfg Config) (Model, error) {
	params := fmt.Sprintf("%s,historysat=%g",
		cfg.paramString(cfg.Decay == nil), reliabilityHistorySat)
	base, err := newZooBase("bawa", params, cfg)
	if err != nil {
		return nil, err
	}
	return &reliabilityModel{zooBase: base, historySat: reliabilityHistorySat}, nil
}

// Trust discounts direct trust by the Laplace-smoothed observed success
// rate ρ = (pos+1)/(n+2) — a resource that completes reliably keeps its
// score, a flaky one is pulled to the floor regardless of what it
// scored — and blends with factor-weighted recommendations by history
// confidence h = n/(n+sat).  A fresh identity (n = 0) is judged almost
// entirely on reputation, so whitewashing resets reliability to the
// uninformed prior instead of escaping it.
func (m *reliabilityModel) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	q := m.resolve(x, y, c)
	theta, err := m.direct(q, now)
	if err != nil {
		return 0, err
	}
	n, pos := m.counts(q)
	rho := (float64(pos) + 1) / (float64(n) + 2)
	direct := MinScore + (theta-MinScore)*rho
	var buf [claimBuf]claim
	claims, err := m.claims(q, now, buf[:])
	if err != nil {
		return 0, err
	}
	omega := m.cfg.InitialScore
	var wsum, vsum float64
	for _, cl := range claims {
		wsum += cl.factor
		vsum += cl.factor * cl.value
	}
	if wsum > 0 {
		omega = vsum / wsum
	}
	h := float64(n) / (float64(n) + m.historySat)
	return clampScore(h*direct + (1-h)*omega), nil
}

func init() {
	RegisterModel(ModelInfo{
		Name:        "purge",
		Description: "recommendation purging: deviation-test filtering of recommender input (Suresh Kumar et al.)",
		New:         newPurgeModel,
	})
	RegisterModel(ModelInfo{
		Name:        "frtrust",
		Description: "FRTRUST-style fuzzy reputation: triangular membership + centroid defuzzification over score/history/load",
		New:         newFuzzyModel,
	})
	RegisterModel(ModelInfo{
		Name:        "bawa",
		Description: "Bawa–Sharma reliability-weighted selection: success-rate-discounted direct trust blended with weighted reputation",
		New:         newReliabilityModel,
	})
}

var (
	_ Model = (*purgeModel)(nil)
	_ Model = (*fuzzyModel)(nil)
	_ Model = (*reliabilityModel)(nil)
)
