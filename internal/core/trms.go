// Package core implements the paper's primary contribution as a running
// system: the trust-aware resource management system (TRMS) of Figure 1.
//
// A TRMS owns (a) the grid topology of GDs with their client and resource
// domains, (b) the central trust-level table, (c) the trust engine that
// evolves Γ values from transaction outcomes, and (d) the monitoring agent
// that observes completed Grid-level transactions and writes revised trust
// levels back into the table — exactly the block diagram of Figure 1.
// Scheduling requests flow through a trust-aware mapping heuristic whose
// expected security cost comes from the live table.  A report is applied,
// table write included, before ReportOutcome returns, so the table a
// submit is priced from depends only on the calls made before it.
//
// The simulation experiments of Tables 4-9 bypass this package and use
// internal/sim directly (their trust tables are statically drawn, as in
// the paper); core is the architecture a deployment would embed, and its
// integration tests demonstrate the closed loop: placements influence
// outcomes, outcomes move trust, trust moves placements.
package core

import (
	"fmt"
	"math"
	"sync"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
)

// Config assembles a TRMS.
type Config struct {
	// Topology is the static Grid structure.  Required.
	Topology *grid.Topology

	// Heuristic maps arriving tasks; nil defaults to sched.MCT.
	Heuristic sched.Immediate

	// TCWeight is the trust-cost weight of the ESC formula (paper: 15).
	// Zero defaults to sched.DefaultTCWeight.
	TCWeight float64

	// ETSRule selects the Table 1 reading (default: literal ETSTable1).
	ETSRule grid.ETSRule

	// Trust configures the evolving trust engine.  A zero value gets
	// sensible defaults (α=0.7, β=0.3, batch 1, smoothing 0.3).
	Trust trust.Config

	// TrustModel selects the trust policy from the model registry
	// ("paper", "purge", "frtrust", "bawa", ...).  Empty selects the
	// paper's engine, preserving pre-zoo behaviour exactly.
	TrustModel string

	// InitialTrust seeds the trust-level table for every
	// (CD, RD, activity) triple where the RD supports the activity.
	// Zero defaults to grid.LevelC.
	InitialTrust grid.TrustLevel

	// Agents is ignored: one monitoring agent applies every report on the
	// caller's goroutine (see ReportOutcome).
	//
	// Deprecated: nothing reads Agents; it is kept so callers that set it
	// still compile.
	Agents int
}

// Task is a request submitted to the TRMS: which client wants to run what
// kind of activity, at what required trust level, with per-machine
// expected execution costs (topology machine order).
type Task struct {
	Client grid.ClientID
	ToA    grid.ToA
	RTL    grid.TrustLevel
	EEC    []float64
}

// Placement describes where the TRMS put a task and at what expected cost.
type Placement struct {
	Machine *grid.Machine
	// MachineIdx is the machine's index in topology order, the stable
	// handle journals use to replay a placement with RecoverPlacement.
	MachineIdx int
	RD         grid.DomainID
	CD         grid.DomainID
	OTL        grid.TrustLevel
	TC         int
	EEC        float64
	ESC        float64
	ECC        float64
	Start      float64
	Finish     float64
}

// OTLFuser folds externally learned trust into the offered trust level
// the scheduler prices a machine at.  FuseOTL receives the local
// table's OTL for (cd, rd, toa) and returns the level to use; a fleet
// claims overlay returns min(local, freshest peer claims) — the
// conservative max-trust-cost fusion — and implementations must never
// return a level above local (remote optimism cannot outvote direct
// experience).  FuseOTL is called concurrently and must be lock-cheap.
type OTLFuser interface {
	FuseOTL(cd, rd grid.DomainID, toa grid.ToA, local grid.TrustLevel) grid.TrustLevel
}

// TRMS is the trust-aware resource management system.  Its methods are
// safe for concurrent use.
type TRMS struct {
	cfg    Config
	policy sched.Policy

	table *grid.TrustTable
	model trust.Model

	// Pricing geometry, fixed at New.  Trust is kept between domains, so
	// a decision prices one cell per resource domain that owns a machine
	// (priced, in first-machine order) and machine m reads cell slot[m].
	priced []*grid.ResourceDomain
	slot   []int

	// fuser, when non-nil, adjusts per-domain OTLs on the submit path.
	// Installed once before the TRMS takes traffic (SetOTLFuser); nil
	// keeps the submit path byte-for-byte identical to a fuser-free TRMS.
	fuser OTLFuser

	// names translates between the topology's domains and activities and
	// the trust engine's entity and context names; read-only after New.
	names entityNames

	// agent applies every report: Figure 1's monitoring agent.
	agent *trust.Agent

	mu       sync.Mutex
	freeTime []float64 // indexed by topology machine order
	// availBuf and asgBuf are mapping scratch reused across submit and
	// batch events (guarded by mu): steady-state mapping allocates
	// nothing for availability vectors or schedules.
	availBuf []float64
	asgBuf   []sched.Assignment
	placed   int
	closed   bool
	// base* seed the cumulative agent counters when a TRMS is rebuilt
	// from a durability snapshot (RestoreAgentStats); AgentStats adds
	// them to the live agent's counts.
	baseProcessed int
	baseCommitted int
	baseRejected  int
}

// New builds a TRMS.
func New(cfg Config) (*TRMS, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("core: config requires a topology")
	}
	if cfg.Heuristic == nil {
		cfg.Heuristic = sched.MCT{}
	}
	if cfg.TCWeight == 0 {
		cfg.TCWeight = sched.DefaultTCWeight
	}
	if cfg.InitialTrust == grid.LevelNone {
		cfg.InitialTrust = grid.LevelC
	}
	if !cfg.InitialTrust.Offerable() {
		return nil, fmt.Errorf("core: initial trust %v is not offerable", cfg.InitialTrust)
	}
	if !cfg.ETSRule.Valid() {
		return nil, fmt.Errorf("core: invalid ETS rule %d", int(cfg.ETSRule))
	}
	if cfg.Trust.Alpha == 0 && cfg.Trust.Beta == 0 {
		cfg.Trust.Alpha, cfg.Trust.Beta = 0.7, 0.3
	}
	policy, err := sched.TrustAware(cfg.TCWeight)
	if err != nil {
		return nil, err
	}
	model, err := trust.NewModel(cfg.TrustModel, cfg.Trust)
	if err != nil {
		return nil, err
	}

	t := &TRMS{
		cfg:      cfg,
		policy:   policy,
		table:    grid.NewTrustTable(),
		model:    model,
		names:    newEntityNames(cfg.Topology),
		freeTime: make([]float64, len(cfg.Topology.Machines())),
		availBuf: make([]float64, len(cfg.Topology.Machines())),
	}
	t.priced, t.slot = pricedDomains(cfg.Topology)

	// Seed the table: every CD trusts every RD at the initial level for
	// each activity the RD supports.
	for _, cd := range cfg.Topology.ClientDomains() {
		for _, rd := range cfg.Topology.ResourceDomains() {
			for act := range rd.Supported {
				if err := t.table.Set(cd.ID, rd.ID, act, cfg.InitialTrust); err != nil {
					return nil, err
				}
			}
		}
	}

	// Figure 1: the monitoring agent feeds the engine and pushes committed
	// trust revisions into the table.
	t.agent, err = trust.NewAgent(model, t.applyTrustUpdate)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// entity naming: trust-engine entities are domains, matching the paper's
// CD/RD-granularity trust ("resources and clients within a GD inherit the
// parameters associated with the RD and CD").
func cdEntity(id grid.DomainID) trust.EntityID {
	return trust.EntityID(fmt.Sprintf("cd:%d", id))
}

func rdEntity(id grid.DomainID) trust.EntityID {
	return trust.EntityID(fmt.Sprintf("rd:%d", id))
}

func activityContext(a grid.Activity) trust.Context {
	return trust.Context(a.String())
}

// entityNames holds the names the report path would otherwise format per
// transaction, and their exact inverses for the agent's table hook.
type entityNames struct {
	cd, rd     map[grid.DomainID]trust.EntityID
	cdOf, rdOf map[trust.EntityID]grid.DomainID
	actOf      map[trust.Context]grid.Activity // built-in activities
}

func newEntityNames(top *grid.Topology) entityNames {
	n := entityNames{
		cd:    map[grid.DomainID]trust.EntityID{},
		rd:    map[grid.DomainID]trust.EntityID{},
		cdOf:  map[trust.EntityID]grid.DomainID{},
		rdOf:  map[trust.EntityID]grid.DomainID{},
		actOf: map[trust.Context]grid.Activity{},
	}
	for _, cd := range top.ClientDomains() {
		n.cd[cd.ID] = cdEntity(cd.ID)
		n.cdOf[n.cd[cd.ID]] = cd.ID
	}
	for _, rd := range top.ResourceDomains() {
		n.rd[rd.ID] = rdEntity(rd.ID)
		n.rdOf[n.rd[rd.ID]] = rd.ID
	}
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		n.actOf[activityContext(a)] = a
	}
	return n
}

// pair names a report's two parties for the trust engine.  A domain
// outside the topology is still reported (the engine may track it) under
// the name it would have been given.
func (n *entityNames) pair(cd, rd grid.DomainID) (from, to trust.EntityID) {
	from, ok := n.cd[cd]
	if !ok {
		from = cdEntity(cd)
	}
	to, ok = n.rd[rd]
	if !ok {
		to = rdEntity(rd)
	}
	return from, to
}

// applyTrustUpdate is the agent's table hook: quantise the fresh Γ score
// onto the discrete scale and update the table if the level changed.
// Entities that are not a cd→rd pair of the topology (or contexts that are
// not built-in activities) are ignored; the engine may track them but the
// table cannot.
func (t *TRMS) applyTrustUpdate(x, y trust.EntityID, c trust.Context, score float64) {
	cd, ok := t.names.cdOf[x]
	if !ok {
		return
	}
	rd, ok := t.names.rdOf[y]
	if !ok {
		return
	}
	act, ok := t.names.actOf[c]
	if !ok {
		return
	}
	level := grid.LevelFromScore(score)
	if !level.Offerable() {
		level = grid.MaxOfferable // F quantises down: F is requirable only
	}
	if cur, exists := t.table.Get(cd, rd, act); exists && cur == level {
		return // "if the new trust values ... are different ... update"
	}
	_ = t.table.Set(cd, rd, act, level)
}

// SetOTLFuser installs an OTL fusion hook (e.g. a fleet claims overlay).
// Call it once, before the TRMS takes traffic: Submit reads the hook
// without synchronisation, relying on the happens-before edge of
// starting the serving goroutines afterwards.
func (t *TRMS) SetOTLFuser(f OTLFuser) { t.fuser = f }

// Table exposes the live trust-level table (read it, snapshot it; direct
// writes are legal and mirror out-of-band administrative overrides).
func (t *TRMS) Table() *grid.TrustTable { return t.table }

// Engine exposes the underlying trust engine (the shared relationship
// store every model is backed by), e.g. to declare alliances or inject
// recommender factors.
func (t *TRMS) Engine() *trust.Engine { return t.model.UnderlyingEngine() }

// Model exposes the configured trust model.  Persistence must snapshot
// through the model, not the raw engine, so model-specific state (and the
// model stamp that guards replay) round-trips.
func (t *TRMS) Model() trust.Model { return t.model }

// Topology exposes the static grid structure the TRMS was built over.
func (t *TRMS) Topology() *grid.Topology { return t.cfg.Topology }

// Placed returns how many tasks have been placed.
func (t *TRMS) Placed() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.placed
}

// SchedulerState captures the mutable scheduler state — placement count
// and per-machine free times in topology machine order — for persistence.
func (t *TRMS) SchedulerState() (placed int, freeTime []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ft := make([]float64, len(t.freeTime))
	copy(ft, t.freeTime)
	return t.placed, ft
}

// RestoreSchedulerState installs state captured by SchedulerState, e.g.
// when rebuilding a TRMS from a durability snapshot.  It replaces, not
// merges: call it on a fresh TRMS before submitting work.
func (t *TRMS) RestoreSchedulerState(placed int, freeTime []float64) error {
	if placed < 0 {
		return fmt.Errorf("core: negative placement count %d", placed)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(freeTime) != len(t.freeTime) {
		return fmt.Errorf("core: restore has %d machine free times, topology has %d",
			len(freeTime), len(t.freeTime))
	}
	copy(t.freeTime, freeTime)
	t.placed = placed
	return nil
}

// RecoverPlacement replays one journalled placement: machine m (topology
// order) is busy until finish, and the placement counts.  Replay is
// order-insensitive — free time only ever advances — so records may be
// applied in any order after a snapshot restore.
func (t *TRMS) RecoverPlacement(m int, finish float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m < 0 || m >= len(t.freeTime) {
		return fmt.Errorf("core: recovered placement on machine %d of %d", m, len(t.freeTime))
	}
	t.freeTime[m] = max(t.freeTime[m], finish)
	t.placed++
	return nil
}

// Submit maps a task at time now and commits it to the chosen machine's
// queue.  The expected security cost is computed from the *current* trust
// table: ESC = EEC × (TC × weight)/100 with TC = ETS(max(task RTL, RD
// RTL), OTL) per Section 4.1.
func (t *TRMS) Submit(task Task, now float64) (*Placement, error) {
	if nm := len(t.slot); len(task.EEC) != nm {
		return nil, fmt.Errorf("core: task has %d EEC entries for %d machines", len(task.EEC), nm)
	}
	if len(task.ToA.Activities) == 0 {
		return nil, fmt.Errorf("core: task has an empty ToA")
	}
	if !task.RTL.Valid() {
		return nil, fmt.Errorf("core: task RTL %v invalid", task.RTL)
	}
	cd, err := t.cfg.Topology.ClientCD(task.Client)
	if err != nil {
		return nil, err
	}
	costs, _, err := t.price([]Task{task}, []grid.DomainID{cd.ID})
	if err == errNoSupportingRD {
		err = fmt.Errorf("core: no resource domain supports ToA %v", task.ToA)
	}
	if err != nil {
		return nil, err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("core: TRMS is closed")
	}
	asg, err := t.cfg.Heuristic.AssignOne(costs, t.policy, 0, t.currentAvail(now))
	if err != nil {
		return nil, err
	}
	if !costs.eligible(0, asg.Machine) {
		return nil, fmt.Errorf("core: heuristic chose ineligible machine %d", asg.Machine)
	}
	return t.commit(costs, 0, asg.Machine, now), nil
}

// currentAvail fills the reusable availability buffer from the machine
// free times at time now.  Callers must hold t.mu; the buffer is valid
// until the next locked mapping event.
func (t *TRMS) currentAvail(now float64) []float64 {
	for m, ft := range t.freeTime {
		t.availBuf[m] = max(ft, now)
	}
	return t.availBuf
}

// ReportOutcome feeds the observed behaviour of a completed placement back
// into the trust fabric: one transaction per activity of the ToA, from the
// client's domain about the resource's domain.  outcome is on the [1,6]
// scale.  Every transaction is applied before ReportOutcome returns, trust
// table write included, so a Submit after it is priced from the new
// level.  The table is written on the caller's goroutine: do not call
// ReportOutcome from inside a TrustTable.ForEach callback, which holds the
// table's read lock.
//
// The outcome is checked here as every trust model checks it.  A
// transaction the model still rejects is counted in AgentStats rather
// than failing the report, so a journalled report replays to the same
// counts.
func (t *TRMS) ReportOutcome(p *Placement, toa grid.ToA, outcome, now float64) error {
	if p == nil {
		return fmt.Errorf("core: nil placement")
	}
	if math.IsNaN(outcome) || outcome < trust.MinScore || outcome > trust.MaxScore {
		return fmt.Errorf("core: outcome %g outside [%g,%g]", outcome, trust.MinScore, trust.MaxScore)
	}
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("core: TRMS is closed")
	}
	from, to := t.names.pair(p.CD, p.RD)
	for _, act := range toa.Activities {
		// A rejection is counted in AgentStats, not returned (see above).
		_ = t.agent.Apply(trust.Transaction{From: from, To: to, Ctx: activityContext(act), Outcome: outcome, Now: now})
	}
	return nil
}

// Close makes the TRMS refuse further submits and reports.  Close is
// idempotent.
func (t *TRMS) Close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// RestoreAgentStats seeds the cumulative agent counters from a
// durability snapshot, so a restarted daemon reports the same lifetime
// totals its predecessor acknowledged.  Call it on a fresh TRMS before it
// takes traffic.
func (t *TRMS) RestoreAgentStats(processed, committed, rejected int) error {
	if processed < 0 || committed < 0 || rejected < 0 {
		return fmt.Errorf("core: negative agent stats %d/%d/%d", processed, committed, rejected)
	}
	if committed+rejected > processed {
		return fmt.Errorf("core: agent stats %d committed + %d rejected exceed %d processed",
			committed, rejected, processed)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.baseProcessed = processed
	t.baseCommitted = committed
	t.baseRejected = rejected
	return nil
}

// AgentStats reports the agent's processed/committed/rejected counts on
// top of any snapshot-restored base counts.
func (t *TRMS) AgentStats() (processed, committed, rejected int) {
	t.mu.Lock()
	processed, committed, rejected = t.baseProcessed, t.baseCommitted, t.baseRejected
	t.mu.Unlock()
	p, c, r := t.agent.Stats()
	return processed + p, committed + c, rejected + r
}
