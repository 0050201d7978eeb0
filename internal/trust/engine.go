package trust

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
)

// Score bounds on the paper's numeric trust scale (levels A=1 … F=6).
const (
	MinScore = 1.0
	MaxScore = 6.0
)

// clampScore confines a score to the paper's scale.
func clampScore(s float64) float64 {
	switch {
	case s < MinScore:
		return MinScore
	case s > MaxScore:
		return MaxScore
	default:
		return s
	}
}

// Config parameterises an Engine.
type Config struct {
	// Alpha and Beta weight direct trust and reputation in Γ.  "If the
	// trustworthiness of y, as far as x is concerned, is based more on
	// direct relationship with x than the reputation of y, α will be
	// larger than β" (Section 2.2).  They must be non-negative and sum
	// to 1.
	Alpha, Beta float64

	// Decay is the Υ function.  Nil defaults to NoDecay.
	Decay DecayFunc

	// InitialScore seeds unknown relationships; defaults to MinScore
	// (a stranger gets the lowest trust, the conservative choice).
	InitialScore float64

	// UpdateBatch is the number of observed transactions that constitute
	// a "significant amount of transactional data" (Section 3.1) before
	// the stored TL is revised.  Defaults to 1 (immediate updates).
	UpdateBatch int

	// Smoothing is the EWMA weight given to the new evidence when a
	// batch commits: new = (1−s)·old + s·batchMean.  Must be in (0,1].
	// Defaults to 0.3, so trust is "a slow varying attribute".
	Smoothing float64

	// PurgeBelow excludes recommenders whose trust factor R(z,y) has
	// fallen below this threshold from Ω entirely, instead of letting
	// their floor-anchored contribution drag the average — the "purging
	// of untrustworthy recommendations" defense.  Must be in [0,1];
	// 0 (the default) never purges, preserving the original semantics.
	PurgeBelow float64
}

// withDefaults fills zero-valued fields and validates the config.
func (c Config) withDefaults() (Config, error) {
	if c.Decay == nil {
		c.Decay = NoDecay()
	}
	if c.InitialScore == 0 {
		c.InitialScore = MinScore
	}
	if c.UpdateBatch == 0 {
		c.UpdateBatch = 1
	}
	if c.Smoothing == 0 {
		c.Smoothing = 0.3
	}
	// Every comparison with NaN is false, so each check names it: a NaN
	// weight, score or threshold would otherwise pass and poison every Γ.
	if !finite(c.Alpha) || !finite(c.Beta) || c.Alpha < 0 || c.Beta < 0 {
		return c, fmt.Errorf("trust: weights α=%g β=%g must be finite and non-negative", c.Alpha, c.Beta)
	}
	if math.Abs(c.Alpha+c.Beta-1) > 1e-9 {
		return c, fmt.Errorf("trust: α+β must equal 1, got %g", c.Alpha+c.Beta)
	}
	if math.IsNaN(c.InitialScore) || c.InitialScore < MinScore || c.InitialScore > MaxScore {
		return c, fmt.Errorf("trust: initial score %g outside [%g,%g]", c.InitialScore, MinScore, MaxScore)
	}
	if c.UpdateBatch < 1 {
		return c, fmt.Errorf("trust: update batch %d must be >= 1", c.UpdateBatch)
	}
	if math.IsNaN(c.Smoothing) || c.Smoothing <= 0 || c.Smoothing > 1 {
		return c, fmt.Errorf("trust: smoothing %g outside (0,1]", c.Smoothing)
	}
	if math.IsNaN(c.PurgeBelow) || c.PurgeBelow < 0 || c.PurgeBelow > 1 {
		return c, fmt.Errorf("trust: purge threshold %g outside [0,1]", c.PurgeBelow)
	}
	return c, nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Engine evolves and serves trust values.  It is safe for concurrent use.
//
// Storage layout.  The first implementation kept every table in Go maps
// keyed by entity strings — (from,to,ctx) → *relationship, [2]EntityID →
// factor — and Reputation walked the entire relationship map, allocated a
// contribution slice and sorted it on every call.  This engine interns
// each EntityID and Context into a dense integer index exactly once and
// stores relationships in flat parallel slices (SoA) addressed by those
// indices:
//
//   - every (subject y, context c) with a record owns one incoming run,
//     the records (x→y, c) sorted by the recommender's EntityID *string*,
//     found at runs[y][c]: two bounds checks and an index.  That run is
//     the only index a query uses: the asker's own relationship sits in
//     it beside the recommenders' (findRel scans it for x), and Ω and the
//     rival models' claims scan it.  Reputation's contract is that
//     contributions sum in recommender string order (float addition is
//     not associative, so summation order defines the bits of Ω); the old
//     engine sorted on every call, this one keeps the run presorted,
//     making Ω an allocation-free linear pass over exactly the
//     relationships that matter;
//   - runs[y] is one row per subject, sized to every context minted so
//     far when a run about y is first linked past its end (append's
//     growth, never one element at a time): the index is at most one
//     slice header per (subject, context), 24·|subjects|·|contexts| bytes
//     plus append's slack;
//   - the rival models' observation tallies (how many outcomes a
//     truster saw and how many were positive) live on the relationship
//     record, so a subject's load is the sum of the tallies in its run.
//     A tally outlives its relationship: Prune unlinks a relationship's
//     record only when it carries no tally, and otherwise leaves it in the
//     run as a tally-only record that Θ, Ω, the claims and Export skip
//     until an Observe, SetDirect or Import makes it a relationship again;
//   - recommender factors and alliances are per-entity sorted index
//     lists, looked up by binary search.
//
// TrustOf and ObserveOf take handles minted once (Entity, Context) and
// touch no map; Trust and Observe resolve names through the intern maps
// into the same indexed code.  Steady state allocates nothing.
// Scores are bit-identical to the reference implementation in
// reference_test.go, which engine_equiv_test.go and FuzzEngineEquivalence
// enforce; the tallies to the rival models' map-based reference in
// model_equiv_test.go.
type Engine struct {
	cfg Config
	// noDecay marks the default Υ (Config.Decay == nil): decay is then
	// the constant 1 and its per-relationship indirect call + output
	// validation are amortised away.  An explicitly supplied DecayFunc —
	// even NoDecay() — is still called per relationship, because the
	// engine cannot inspect it.
	noDecay bool

	mu sync.RWMutex

	// rival is the model Trust scores by (zoo.go); a rival's Observe
	// also tallies the outcome on the relationship's record.
	rival rival

	// Entity and context interning: the string forms consult the index
	// maps once per call; everything below works on dense int32 indices.
	entIdx map[EntityID]int32
	ents   []EntityID
	ctxIdx map[Context]int32
	ctxs   []Context

	// Records in flat parallel slices, addressed by the rel index stored
	// in the run edges.  A linked record is a live relationship, a
	// tally-only record, or both; one that is neither is unlinked and its
	// slot recycled through relFree.
	relFrom    []int32
	relTo      []int32
	relCtx     []int32
	relScore   []float64
	relLastTx  []float64
	relPendSum []float64
	relPendCnt []int32
	relLive    []bool // a relationship: scored, exported, recommending
	relTally   []bool // carries a tally (rival models only)
	relN       []int32
	relPos     []int32
	relFree    []int32
	live       int // live relationships

	runs [][][]edge  // per subject, per context: sorted by from string
	rec  [][]recEdge // per recommender, sorted by about index
	ally [][]int32   // per entity, sorted ally index list
}

// edge is one incoming run entry: the recommender and the record it names.
type edge struct {
	peer int32
	rel  int32
}

// recEdge is one explicit R(z,y) override.
type recEdge struct {
	about  int32
	factor float64
}

// NewEngine builds an Engine from cfg.
func NewEngine(cfg Config) (*Engine, error) {
	noDecay := cfg.Decay == nil
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Engine{
		cfg:     cfg,
		noDecay: noDecay,
		entIdx:  make(map[EntityID]int32),
		ctxIdx:  make(map[Context]int32),
	}, nil
}

// intern returns the dense index of id, assigning one on first sight.
// Write paths only: read paths use the index maps directly so queries
// about unknown entities do not grow the tables.
func (e *Engine) intern(id EntityID) int32 {
	if i, ok := e.entIdx[id]; ok {
		return i
	}
	i := int32(len(e.ents))
	e.entIdx[id] = i
	e.ents = append(e.ents, id)
	e.runs = append(e.runs, nil)
	e.rec = append(e.rec, nil)
	e.ally = append(e.ally, nil)
	return i
}

// internCtx is intern for contexts.
func (e *Engine) internCtx(c Context) int32 {
	if i, ok := e.ctxIdx[c]; ok {
		return i
	}
	i := int32(len(e.ctxs))
	e.ctxIdx[c] = i
	e.ctxs = append(e.ctxs, c)
	return i
}

// run returns y's incoming run in context c, in recommender string order;
// empty when y or c is unknown (negative) or nobody has a record about y
// in c.  Caller holds the lock.
func (e *Engine) run(y, c int32) []edge {
	if uint(y) < uint(len(e.runs)) && uint(c) < uint(len(e.runs[y])) {
		return e.runs[y][c]
	}
	return nil
}

// lookup returns the record x holds in run, or -1, by a scan: a run holds
// one record per truster of the subject in the context, a handful in
// every workload.  Caller holds the lock.
func (e *Engine) lookup(run []edge, x int32) int32 {
	for _, ed := range run {
		if ed.peer == x {
			return ed.rel
		}
	}
	return -1
}

// findRel locates the live relationship (xi → yi, ci) in the run of (yi,
// ci).  Caller holds the lock.
func (e *Engine) findRel(xi, yi, ci int32) (int32, bool) {
	ri := e.lookup(e.run(yi, ci), xi)
	return ri, ri >= 0 && e.relLive[ri]
}

// relate makes (xi → yi, ci) a live relationship with the given score and
// last transaction time and no pending evidence, on the record already in
// the run (live, or tally-only after a prune) or on a new one, which it
// links in.  It returns the record.  Caller holds the write lock.
func (e *Engine) relate(xi, yi, ci int32, score, lastTx float64) int32 {
	ri := e.lookup(e.run(yi, ci), xi)
	if ri < 0 {
		ri = e.link(xi, yi, ci)
	}
	e.relScore[ri], e.relLastTx[ri] = score, lastTx
	e.relPendSum[ri], e.relPendCnt[ri] = 0, 0
	if !e.relLive[ri] {
		e.relLive[ri] = true
		e.live++
	}
	return ri
}

// link creates an empty record — neither a relationship nor a tally yet —
// and inserts it into the incoming run of (yi, ci).  The caller must hold the
// write lock, must have checked no record exists and must make the new one
// a relationship or a tally.
func (e *Engine) link(xi, yi, ci int32) int32 {
	var ri int32
	if n := len(e.relFree); n > 0 {
		ri = e.relFree[n-1]
		e.relFree = e.relFree[:n-1]
		e.relFrom[ri], e.relTo[ri], e.relCtx[ri] = xi, yi, ci
		e.relScore[ri], e.relLastTx[ri] = 0, 0
		e.relPendSum[ri], e.relPendCnt[ri] = 0, 0
		e.relLive[ri], e.relTally[ri] = false, false
		e.relN[ri], e.relPos[ri] = 0, 0
	} else {
		ri = int32(len(e.relFrom))
		e.relFrom = append(e.relFrom, xi)
		e.relTo = append(e.relTo, yi)
		e.relCtx = append(e.relCtx, ci)
		e.relScore = append(e.relScore, 0)
		e.relLastTx = append(e.relLastTx, 0)
		e.relPendSum = append(e.relPendSum, 0)
		e.relPendCnt = append(e.relPendCnt, 0)
		e.relLive = append(e.relLive, false)
		e.relTally = append(e.relTally, false)
		e.relN = append(e.relN, 0)
		e.relPos = append(e.relPos, 0)
	}
	// Ordered by the recommender's EntityID string, so a scan of the run
	// sums contributions in exactly the order the reference implementation
	// sorts them into.  A new run has room for a few recommenders: the
	// simulator's runs hold one record per client domain.
	row := e.runs[yi]
	if int(ci) >= len(row) {
		row = append(row, make([][]edge, len(e.ctxs)-len(row))...)
		e.runs[yi] = row
	}
	run, from := row[ci], e.ents[xi]
	if run == nil {
		run = make([]edge, 0, 4)
	}
	pos := sort.Search(len(run), func(j int) bool { return e.ents[run[j].peer] >= from })
	row[ci] = slices.Insert(run, pos, edge{peer: xi, rel: ri})
	return ri
}

// unlink removes a record that is neither a relationship nor a tally from
// its run and frees its slot.  An emptied run stays, for the next record
// about its subject in its context.  Caller holds the write lock.
func (e *Engine) unlink(ri int32) {
	run := &e.runs[e.relTo[ri]][e.relCtx[ri]]
	*run = slices.DeleteFunc(*run, func(ed edge) bool { return ed.rel == ri })
	e.relFree = append(e.relFree, ri)
}

// decay evaluates Υ(age, c), amortising the call away for the default
// no-decay configuration.
func (e *Engine) decay(age float64, c Context) (float64, error) {
	if e.noDecay {
		return 1, nil
	}
	d := e.cfg.Decay(age, c)
	if err := validateDecayOutput(d); err != nil {
		return 0, err
	}
	return d, nil
}

// SetDirect installs a direct-trust table entry, e.g. from configuration or
// an out-of-band agreement.  score must be on [1,6].
func (e *Engine) SetDirect(x, y EntityID, c Context, score, now float64) error {
	if math.IsNaN(score) || score < MinScore || score > MaxScore {
		return fmt.Errorf("trust: score %g outside [%g,%g]", score, MinScore, MaxScore)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.relate(e.intern(x), e.intern(y), e.internCtx(c), score, now)
	return nil
}

// DeclareAlliance records that a and b are allied.  Alliances reduce the
// recommender trust factor: "R … will have a higher value if the
// recommender does not have an alliance with the target entity"
// (Section 2.2).
func (e *Engine) DeclareAlliance(a, b EntityID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ai, bi := e.intern(a), e.intern(b)
	insertAlly(&e.ally[ai], bi)
	insertAlly(&e.ally[bi], ai)
}

// insertAlly adds idx to a sorted ally list, ignoring duplicates.
func insertAlly(list *[]int32, idx int32) {
	l := *list
	pos := sort.Search(len(l), func(i int) bool { return l[i] >= idx })
	if pos < len(l) && l[pos] == idx {
		return
	}
	l = append(l, 0)
	copy(l[pos+1:], l[pos:])
	l[pos] = idx
	*list = l
}

// allied reports an alliance between interned entities.
func (e *Engine) allied(ai, bi int32) bool {
	l := e.ally[ai]
	pos := sort.Search(len(l), func(i int) bool { return l[i] >= bi })
	return pos < len(l) && l[pos] == bi
}

// Allied reports whether a and b have a declared alliance.
func (e *Engine) Allied(a, b EntityID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ai, ok := e.entIdx[a]
	if !ok {
		return false
	}
	bi, ok := e.entIdx[b]
	if !ok {
		return false
	}
	return e.allied(ai, bi)
}

// SetRecommenderFactor overrides the learned R(z,y) in [0,1].  "R is an
// internal knowledge that each entity has and is learned based on actual
// outcomes" (Section 2.2); tests and simulations can inject it directly.
func (e *Engine) SetRecommenderFactor(z, y EntityID, r float64) error {
	if math.IsNaN(r) || r < 0 || r > 1 {
		return fmt.Errorf("trust: recommender factor %g outside [0,1]", r)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	zi, yi := e.intern(z), e.intern(y)
	l := e.rec[zi]
	pos := sort.Search(len(l), func(i int) bool { return l[i].about >= yi })
	if pos < len(l) && l[pos].about == yi {
		l[pos].factor = r
		return nil
	}
	l = append(l, recEdge{})
	copy(l[pos+1:], l[pos:])
	l[pos] = recEdge{about: yi, factor: r}
	e.rec[zi] = l
	return nil
}

// recommenderFactor returns R(z,y) by index: an explicit override if
// present, else a low factor (0.1) for allies and full weight (1.0)
// otherwise.
func (e *Engine) recommenderFactor(zi, yi int32) float64 {
	l := e.rec[zi]
	pos := sort.Search(len(l), func(i int) bool { return l[i].about >= yi })
	if pos < len(l) && l[pos].about == yi {
		return l[pos].factor
	}
	if e.allied(zi, yi) {
		return 0.1
	}
	return 1.0
}

// Observe records the outcome of one transaction between x and y in
// context c at time now.  outcome is a behaviour score on [1,6]: how
// trustworthy y proved to be.  The stored TL only moves once UpdateBatch
// observations have accumulated — "a value in the trust level table is
// modified by a new trust level value that is computed based on a
// significant amount of transactional data" (Section 3.1).
// It reports whether the stored trust level changed.
func (e *Engine) Observe(x, y EntityID, c Context, outcome, now float64) (bool, error) {
	if err := checkOutcome(outcome); err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.observe(e.intern(x), e.intern(y), e.internCtx(c), outcome, now), nil
}

// ObserveOf is Observe on handles this engine minted.
func (e *Engine) ObserveOf(x, y Ent, c Ctx, outcome, now float64) (bool, error) {
	if err := checkOutcome(outcome); err != nil {
		return false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	q, err := e.handles(x, y, c)
	if err != nil {
		return false, err
	}
	return e.observe(q.x, q.y, q.c, outcome, now), nil
}

// checkOutcome rejects an outcome off the trust scale, NaN included.
func checkOutcome(outcome float64) error {
	if math.IsNaN(outcome) || outcome < MinScore || outcome > MaxScore {
		return fmt.Errorf("trust: outcome %g outside [%g,%g]", outcome, MinScore, MaxScore)
	}
	return nil
}

// observe is Observe on interned indices: it reports whether the stored
// TL changed and, under a rival model, tallies the outcome.  Caller holds
// the write lock.
func (e *Engine) observe(xi, yi, ci int32, outcome, now float64) bool {
	ri, ok := e.findRel(xi, yi, ci)
	if !ok {
		ri = e.relate(xi, yi, ci, e.cfg.InitialScore, now)
	}
	if e.rival != paper {
		e.relTally[ri] = true
		e.relN[ri]++
		if outcome >= posThreshold {
			e.relPos[ri]++
		}
	}
	e.relPendSum[ri] += outcome
	e.relPendCnt[ri]++
	e.relLastTx[ri] = now
	if int(e.relPendCnt[ri]) < e.cfg.UpdateBatch {
		return false
	}
	batchMean := e.relPendSum[ri] / float64(e.relPendCnt[ri])
	e.relPendSum[ri], e.relPendCnt[ri] = 0, 0
	s := e.cfg.Smoothing
	e.relScore[ri] = clampScore((1-s)*e.relScore[ri] + s*batchMean)
	return true
}

// query is one (asker, subject, context) triple resolved to dense
// indices; -1 marks a name the engine has never seen.  The context's
// name rides along for the decay function.
type query struct {
	x, y, c int32
	ctx     Context
}

// resolve looks x, y and c up without interning them.  Caller holds the
// lock.
func (e *Engine) resolve(x, y EntityID, c Context) query {
	q := query{x: -1, y: -1, c: -1, ctx: c}
	if i, ok := e.entIdx[x]; ok {
		q.x = i
	}
	if i, ok := e.entIdx[y]; ok {
		q.y = i
	}
	if i, ok := e.ctxIdx[c]; ok {
		q.c = i
	}
	return q
}

// Ent is an entity's handle, minted by Model.Entity: its dense index in
// the model that minted it, plus one, so the zero value is no entity.  A
// handle is valid for its model's life and in no other model.
type Ent struct{ id int32 }

// Ctx is a context's handle, minted by Model.Context like Ent.  It carries
// the context's name, which the decay function Υ is called with.
type Ctx struct {
	id   int32
	name Context
}

// ErrHandle is returned for a handle the model can tell it did not mint:
// the zero value, an index past what it minted, or a context handle whose
// index holds another name here (another model's).
var ErrHandle = errors.New("trust: handle not minted by this model")

// Entity mints id's handle, interning the name on first sight.  Minting
// is a write (it takes the write lock) that changes no score.
func (e *Engine) Entity(id EntityID) Ent {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Ent{e.intern(id) + 1}
}

// Context mints c's handle, as Entity does an entity's.
func (e *Engine) Context(c Context) Ctx {
	e.mu.Lock()
	defer e.mu.Unlock()
	i := e.internCtx(c)
	return Ctx{i + 1, e.ctxs[i]}
}

// handles checks three handles against the intern tables and returns
// their query: a context handle must also carry the name its index
// holds, so another model's handle cannot alias this one's context under
// a different decay name.  Caller holds the lock.
func (e *Engine) handles(x, y Ent, c Ctx) (query, error) {
	n := int32(len(e.ents))
	if x.id < 1 || x.id > n || y.id < 1 || y.id > n ||
		c.id < 1 || int(c.id) > len(e.ctxs) || e.ctxs[c.id-1] != c.name {
		return query{}, ErrHandle
	}
	return query{x: x.id - 1, y: y.id - 1, c: c.id - 1, ctx: c.name}, nil
}

// Direct computes Θ(x,y,t,c) = DTT(x,y,c) · Υ(t−t_xy, c).  Unknown
// relationships return the configured initial score fully decayed to the
// conservative floor (i.e. the initial score with Υ evaluated at +inf is
// not defined, so we simply return the initial score — a stranger's trust
// does not decay because there is nothing to decay from).
func (e *Engine) Direct(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q := e.resolve(x, y, c)
	return e.theta(e.lookup(e.run(q.y, q.c), q.x), q.ctx, now)
}

// theta is Θ on the asker's record ri in the query's run (-1 for none):
// the initial score unless the record is a live relationship.  Caller
// holds the lock.
func (e *Engine) theta(ri int32, ctx Context, now float64) (float64, error) {
	if ri < 0 || !e.relLive[ri] {
		return e.cfg.InitialScore, nil
	}
	d, err := e.decay(now-e.relLastTx[ri], ctx)
	if err != nil {
		return 0, err
	}
	// Decay pulls the remembered score toward the scale floor rather than
	// to zero, keeping Θ on [1,6]: Θ = 1 + (score−1)·Υ.
	return MinScore + (e.relScore[ri]-MinScore)*d, nil
}

// Reputation computes Ω(y,t,c): the average over recommenders z≠x of
// RTT(z,y,c)·R(z,y)·Υ(t−t_zy,c).  Entities with no recorded relationship
// to y do not recommend.  If nobody can recommend, the configured initial
// score is returned.
func (e *Engine) Reputation(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q := e.resolve(x, y, c)
	return e.reputation(q, e.run(q.y, q.c), now)
}

// reputation scans q's run: y's incoming run in context c.  The run is
// presorted by recommender string, so the sum accumulates in exactly the
// order the reference implementation establishes by sorting per call —
// float addition is not associative, and Ω's bits are part of the engine's
// determinism contract.  Caller holds the lock.
func (e *Engine) reputation(q query, run []edge, now float64) (float64, error) {
	var sum float64
	n := 0
	for _, ed := range run {
		if ed.peer == q.x || ed.peer == q.y || !e.relLive[ed.rel] {
			continue
		}
		d, err := e.decay(now-e.relLastTx[ed.rel], q.ctx)
		if err != nil {
			return 0, err
		}
		r := e.recommenderFactor(ed.peer, q.y)
		if r < e.cfg.PurgeBelow {
			// Purged: a recommender distrusted this far is not averaged
			// in at the floor, it is ignored outright.
			continue
		}
		// Like Θ, each recommendation is anchored at the scale floor:
		// a distrusted or stale recommendation contributes the floor,
		// not an off-scale zero.
		sum += MinScore + (e.relScore[ed.rel]-MinScore)*d*r
		n++
	}
	if n == 0 {
		return e.cfg.InitialScore, nil
	}
	return sum / float64(n), nil
}

// Recommendation returns the decayed trust level recommender z would
// contribute about y in context c — RTT(z,y,c)·Υ anchored at the scale
// floor, before any R(x,z) weighting — and whether z has a recorded
// relationship with y at all.  It is the raw claim an entity audits when
// learning its recommender trust factors: compare what z says against
// what direct experience shows, and weight z accordingly.
func (e *Engine) Recommendation(z, y EntityID, c Context, now float64) (float64, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q := e.resolve(z, y, c)
	ri, ok := e.findRel(q.x, q.y, q.c)
	if !ok {
		return 0, false, nil
	}
	v, err := e.theta(ri, q.ctx, now)
	return v, err == nil, err
}

// Trust computes the eventual trust Γ(x,y,t,c) = α·Θ + β·Ω, clamped to the
// paper's [1,6] scale, or under a rival model that model's score.  Both
// read one run: the subject's incoming run in the context, which holds the
// asker's own relationship among the recommenders'.
func (e *Engine) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.trust(e.resolve(x, y, c), now)
}

// TrustOf is Trust on handles this engine minted.
func (e *Engine) TrustOf(x, y Ent, c Ctx, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q, err := e.handles(x, y, c)
	if err != nil {
		return 0, err
	}
	return e.trust(q, now)
}

// trust is Trust on a resolved query.  Caller holds the lock.
func (e *Engine) trust(q query, now float64) (float64, error) {
	run := e.run(q.y, q.c)
	if e.rival != paper {
		return e.rivalTrust(q, run, now)
	}
	theta, err := e.theta(e.lookup(run, q.x), q.ctx, now)
	if err != nil {
		return 0, err
	}
	omega, err := e.reputation(q, run, now)
	if err != nil {
		return 0, err
	}
	return clampScore(e.cfg.Alpha*theta + e.cfg.Beta*omega), nil
}

// Entities returns all entities the engine has seen, sorted for
// determinism.
func (e *Engine) Entities() []EntityID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]EntityID, len(e.ents))
	copy(out, e.ents)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Relationships returns the number of stored (truster, trustee, context)
// records.
func (e *Engine) Relationships() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.live
}

// Prune removes relationships whose last transaction is older than
// `before` and whose decayed contribution has fallen to the scale floor —
// the garbage collection a long-running trust fabric needs ("managing ...
// trust in a large-scale distributed system", Section 7).  A relationship
// with pending (uncommitted) observations is never pruned.  A rival
// model's tally survives its relationship's prune.  It returns the number
// of relationships removed.
func (e *Engine) Prune(before float64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	removed := 0
	for ri := range e.relLive {
		if !e.relLive[ri] || e.relPendCnt[ri] > 0 || e.relLastTx[ri] >= before {
			continue
		}
		e.relLive[ri] = false
		e.live--
		removed++
		if !e.relTally[ri] {
			e.unlink(int32(ri))
		}
	}
	return removed
}
