package trust

import (
	"fmt"
	"math"
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
	if c.Alpha < 0 || c.Beta < 0 {
		return c, fmt.Errorf("trust: negative weights α=%g β=%g", c.Alpha, c.Beta)
	}
	if math.Abs(c.Alpha+c.Beta-1) > 1e-9 {
		return c, fmt.Errorf("trust: α+β must equal 1, got %g", c.Alpha+c.Beta)
	}
	if c.InitialScore < MinScore || c.InitialScore > MaxScore {
		return c, fmt.Errorf("trust: initial score %g outside [%g,%g]", c.InitialScore, MinScore, MaxScore)
	}
	if c.UpdateBatch < 1 {
		return c, fmt.Errorf("trust: update batch %d must be >= 1", c.UpdateBatch)
	}
	if c.Smoothing <= 0 || c.Smoothing > 1 {
		return c, fmt.Errorf("trust: smoothing %g outside (0,1]", c.Smoothing)
	}
	if c.PurgeBelow < 0 || c.PurgeBelow > 1 {
		return c, fmt.Errorf("trust: purge threshold %g outside [0,1]", c.PurgeBelow)
	}
	return c, nil
}

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
//   - out[x] is x's outgoing adjacency, sorted by (to, ctx) index — a
//     binary search replaces the map lookup in Observe/Direct;
//   - in[y] is y's incoming adjacency, sorted by context index, then by
//     the recommender's EntityID *string*.  Reputation's contract is that
//     contributions sum in recommender string order (float addition is
//     not associative, so summation order defines the bits of Ω); the
//     old engine sorted on every call, this one keeps the adjacency
//     presorted, binary-searches the context's run and just scans it,
//     making Ω an allocation-free linear pass over exactly the
//     relationships that matter;
//   - recommender factors and alliances are per-entity sorted index
//     lists, looked up by binary search.
//
// Steady-state Observe and Trust therefore allocate nothing and touch no
// map beyond the intern lookups at the API boundary (EntityID and Context
// are strings; the intern read is how a string becomes an index), done
// once per call under one lock: every string-keyed method turns its names
// into indices and runs the indexed code on them.
// Scores are bit-identical to the reference implementation in
// reference_test.go, which engine_equiv_test.go and FuzzEngineEquivalence
// enforce.
type Engine struct {
	cfg Config
	// noDecay marks the default Υ (Config.Decay == nil): decay is then
	// the constant 1 and its per-relationship indirect call + output
	// validation are amortised away.  An explicitly supplied DecayFunc —
	// even NoDecay() — is still called per relationship, because the
	// engine cannot inspect it.
	noDecay bool

	mu sync.RWMutex

	// Entity and context interning: index maps are consulted once per
	// API call; everything below works on dense int32 indices.
	entIdx map[EntityID]int32
	ents   []EntityID
	ctxIdx map[Context]int32
	ctxs   []Context

	// Relationship records in flat parallel slices, addressed by the
	// rel index stored in the adjacency edges.  Freed slots (Prune) are
	// recycled through relFree.
	relFrom    []int32
	relTo      []int32
	relCtx     []int32
	relScore   []float64
	relLastTx  []float64
	relPendSum []float64
	relPendCnt []int32
	relLive    []bool
	relFree    []int32

	out  [][]edge    // per from-entity, sorted by (to, ctx) index
	in   [][]edge    // per to-entity, sorted by (ctx index, from string)
	rec  [][]recEdge // per recommender, sorted by about index
	ally [][]int32   // per entity, sorted ally index list
}

// edge is one adjacency entry: the far endpoint, the context and the
// relationship record it names.
type edge struct {
	peer int32 // out: the trustee; in: the recommender
	ctx  int32
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
	e.out = append(e.out, nil)
	e.in = append(e.in, nil)
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

// findRel locates the relationship (xi → yi, ci) by binary search over
// xi's outgoing adjacency.
func (e *Engine) findRel(xi, yi, ci int32) (int32, bool) {
	adj := e.out[xi]
	lo := sort.Search(len(adj), func(i int) bool {
		if adj[i].peer != yi {
			return adj[i].peer > yi
		}
		return adj[i].ctx >= ci
	})
	if lo < len(adj) && adj[lo].peer == yi && adj[lo].ctx == ci {
		return adj[lo].rel, true
	}
	return 0, false
}

// newRel creates a relationship record and links it into both adjacency
// lists.  The caller must hold the write lock and must have checked the
// relationship does not already exist.
func (e *Engine) newRel(xi, yi, ci int32, score, lastTx float64) int32 {
	var ri int32
	if n := len(e.relFree); n > 0 {
		ri = e.relFree[n-1]
		e.relFree = e.relFree[:n-1]
		e.relFrom[ri], e.relTo[ri], e.relCtx[ri] = xi, yi, ci
		e.relScore[ri], e.relLastTx[ri] = score, lastTx
		e.relPendSum[ri], e.relPendCnt[ri] = 0, 0
		e.relLive[ri] = true
	} else {
		ri = int32(len(e.relFrom))
		e.relFrom = append(e.relFrom, xi)
		e.relTo = append(e.relTo, yi)
		e.relCtx = append(e.relCtx, ci)
		e.relScore = append(e.relScore, score)
		e.relLastTx = append(e.relLastTx, lastTx)
		e.relPendSum = append(e.relPendSum, 0)
		e.relPendCnt = append(e.relPendCnt, 0)
		e.relLive = append(e.relLive, true)
	}

	// Outgoing adjacency: ordered by (to, ctx) index for binary search.
	adj := e.out[xi]
	pos := sort.Search(len(adj), func(i int) bool {
		if adj[i].peer != yi {
			return adj[i].peer > yi
		}
		return adj[i].ctx >= ci
	})
	adj = append(adj, edge{})
	copy(adj[pos+1:], adj[pos:])
	adj[pos] = edge{peer: yi, ctx: ci, rel: ri}
	e.out[xi] = adj

	// Incoming adjacency: ordered by ctx, then by the recommender's
	// EntityID string, so Reputation's scan of one context's run sums
	// contributions in exactly the order the reference implementation
	// sorts them into.
	from := e.ents[xi]
	inc := e.in[yi]
	pos = sort.Search(len(inc), func(i int) bool {
		if inc[i].ctx != ci {
			return inc[i].ctx > ci
		}
		return e.ents[inc[i].peer] >= from
	})
	inc = append(inc, edge{})
	copy(inc[pos+1:], inc[pos:])
	inc[pos] = edge{peer: xi, ctx: ci, rel: ri}
	e.in[yi] = inc
	return ri
}

// dropRel unlinks and frees a relationship record.  Caller holds the
// write lock.
func (e *Engine) dropRel(ri int32) {
	xi, yi, ci := e.relFrom[ri], e.relTo[ri], e.relCtx[ri]
	adj := e.out[xi]
	for i := range adj {
		if adj[i].rel == ri {
			e.out[xi] = append(adj[:i], adj[i+1:]...)
			break
		}
	}
	inc := e.in[yi]
	for i := range inc {
		if inc[i].rel == ri {
			e.in[yi] = append(inc[:i], inc[i+1:]...)
			break
		}
	}
	_ = ci
	e.relLive[ri] = false
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
	xi, yi, ci := e.intern(x), e.intern(y), e.internCtx(c)
	if ri, ok := e.findRel(xi, yi, ci); ok {
		e.relScore[ri], e.relLastTx[ri] = score, now
		e.relPendSum[ri], e.relPendCnt[ri] = 0, 0
		return nil
	}
	e.newRel(xi, yi, ci, score, now)
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

// checkOutcome rejects an outcome off the trust scale, NaN included.
func checkOutcome(outcome float64) error {
	if math.IsNaN(outcome) || outcome < MinScore || outcome > MaxScore {
		return fmt.Errorf("trust: outcome %g outside [%g,%g]", outcome, MinScore, MaxScore)
	}
	return nil
}

// observe is Observe on interned indices.  Caller holds the write lock.
func (e *Engine) observe(xi, yi, ci int32, outcome, now float64) bool {
	ri, ok := e.findRel(xi, yi, ci)
	if !ok {
		ri = e.newRel(xi, yi, ci, e.cfg.InitialScore, now)
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

// Direct computes Θ(x,y,t,c) = DTT(x,y,c) · Υ(t−t_xy, c).  Unknown
// relationships return the configured initial score fully decayed to the
// conservative floor (i.e. the initial score with Υ evaluated at +inf is
// not defined, so we simply return the initial score — a stranger's trust
// does not decay because there is nothing to decay from).
func (e *Engine) Direct(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.direct(e.resolve(x, y, c), now)
}

// direct is Direct on a resolved query.  Caller holds the lock.
func (e *Engine) direct(q query, now float64) (float64, error) {
	if q.x < 0 || q.y < 0 || q.c < 0 {
		return e.cfg.InitialScore, nil
	}
	ri, ok := e.findRel(q.x, q.y, q.c)
	if !ok {
		return e.cfg.InitialScore, nil
	}
	d, err := e.decay(now-e.relLastTx[ri], q.ctx)
	if err != nil {
		return 0, err
	}
	// Decay pulls the remembered score toward the scale floor rather than
	// to zero, keeping Θ on [1,6]: Θ = 1 + (score−1)·Υ.
	return MinScore + (e.relScore[ri]-MinScore)*d, nil
}

// incoming returns the run of y's incoming adjacency in context c, in
// recommender string order.  Caller holds the lock; y and c are known.
func (e *Engine) incoming(y, c int32) []edge {
	inc := e.in[y]
	lo := sort.Search(len(inc), func(i int) bool { return inc[i].ctx >= c })
	hi := lo
	for hi < len(inc) && inc[hi].ctx == c {
		hi++
	}
	return inc[lo:hi]
}

// Reputation computes Ω(y,t,c): the average over recommenders z≠x of
// RTT(z,y,c)·R(z,y)·Υ(t−t_zy,c).  Entities with no recorded relationship
// to y do not recommend.  If nobody can recommend, the configured initial
// score is returned.
func (e *Engine) Reputation(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.reputation(e.resolve(x, y, c), now)
}

// reputation scans y's incoming run in context c.  The run is presorted
// by recommender string, so the sum accumulates in exactly the order the
// reference implementation establishes by sorting per call — float
// addition is not associative, and Ω's bits are part of the engine's
// determinism contract.  Caller holds the lock.
func (e *Engine) reputation(q query, now float64) (float64, error) {
	if q.y < 0 || q.c < 0 {
		return e.cfg.InitialScore, nil
	}
	var sum float64
	n := 0
	for _, ed := range e.incoming(q.y, q.c) {
		if ed.peer == q.x || ed.peer == q.y {
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
	if q.x < 0 || q.y < 0 || q.c < 0 {
		return 0, false, nil
	}
	if _, ok := e.findRel(q.x, q.y, q.c); !ok {
		return 0, false, nil
	}
	v, err := e.direct(q, now)
	return v, err == nil, err
}

// Trust computes the eventual trust Γ(x,y,t,c) = α·Θ + β·Ω, clamped to the
// paper's [1,6] scale.
func (e *Engine) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q := e.resolve(x, y, c)
	theta, err := e.direct(q, now)
	if err != nil {
		return 0, err
	}
	omega, err := e.reputation(q, now)
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
	return len(e.relFrom) - len(e.relFree)
}

// Prune removes relationships whose last transaction is older than
// `before` and whose decayed contribution has fallen to the scale floor —
// the garbage collection a long-running trust fabric needs ("managing ...
// trust in a large-scale distributed system", Section 7).  A relationship
// with pending (uncommitted) observations is never pruned.  It returns the
// number of records removed.
func (e *Engine) Prune(before float64) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	removed := 0
	for ri := range e.relLive {
		if !e.relLive[ri] || e.relPendCnt[ri] > 0 || e.relLastTx[ri] >= before {
			continue
		}
		e.dropRel(int32(ri))
		removed++
	}
	return removed
}
