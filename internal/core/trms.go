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
	"errors"
	"fmt"
	"math"
	"slices"
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
	slot   []int32

	// fuser, when non-nil, adjusts per-domain OTLs on the submit path.
	// Installed once before the TRMS takes traffic (SetOTLFuser); nil
	// keeps the submit path byte-for-byte identical to a fuser-free TRMS.
	fuser OTLFuser

	// cds and rds hold the trust model's handle of each client and
	// resource domain of the topology, indexed by domain id (the zero
	// handle for an id the topology lacks); acts that of each built-in
	// activity.  Minted in New, read-only after.
	cds, rds []trust.Ent
	acts     []trust.Ctx

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
		freeTime: make([]float64, len(cfg.Topology.Machines())),
		availBuf: make([]float64, len(cfg.Topology.Machines())),
	}
	t.priced, t.slot = pricedDomains(cfg.Topology)
	for _, cd := range cfg.Topology.ClientDomains() {
		if t.cds, err = t.mint(t.cds, "cd", cd.ID); err != nil {
			return nil, err
		}
	}
	for _, rd := range cfg.Topology.ResourceDomains() {
		if t.rds, err = t.mint(t.rds, "rd", rd.ID); err != nil {
			return nil, err
		}
	}
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		t.acts = append(t.acts, t.context(a))
	}

	// Seed the table: every CD trusts every RD at the initial level for
	// each activity the RD supports, in one write at the version a Set
	// per entry would reach.
	var seed []grid.TableEntry
	var acts []grid.Activity
	for _, cd := range cfg.Topology.ClientDomains() {
		for _, rd := range cfg.Topology.ResourceDomains() {
			acts = acts[:0]
			for act := range rd.Supported {
				acts = append(acts, act)
			}
			slices.Sort(acts)
			for _, act := range acts {
				seed = append(seed, grid.TableEntry{CD: cd.ID, RD: rd.ID, Activity: act, Level: cfg.InitialTrust})
			}
		}
	}
	if err := t.table.Restore(seed, uint64(len(seed))); err != nil {
		return nil, fmt.Errorf("core: seed the trust table: %w", err)
	}

	// Figure 1: the monitoring agent feeds the engine and pushes committed
	// trust revisions into the table.
	t.agent, err = trust.NewAgent(model)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// mint puts the handle of domain id into hs, the kind's handles, growing
// it to index id.  Trust-engine entities are domains, matching the paper's
// CD/RD-granularity trust ("resources and clients within a GD inherit the
// parameters associated with the RD and CD").
func (t *TRMS) mint(hs []trust.Ent, kind string, id grid.DomainID) ([]trust.Ent, error) {
	switch {
	case id < 0:
		return nil, fmt.Errorf("core: %s id %d is negative", kind, id)
	case id >= grid.TableDomains:
		return nil, fmt.Errorf("core: %s id %d is past the trust table's last domain id %d", kind, id, grid.TableDomains-1)
	}
	if n := int(id) + 1 - len(hs); n > 0 {
		hs = append(hs, make([]trust.Ent, n)...)
	}
	hs[id] = t.entity(hs, kind, id)
	return hs, nil
}

// entity returns the handle of domain id of a kind: the one New minted
// for a domain of the topology, else one minted now under the name it
// would have been given, "<kind>:<id>" (the model interns it once).
func (t *TRMS) entity(hs []trust.Ent, kind string, id grid.DomainID) trust.Ent {
	if inTopology(hs, id) {
		return hs[id]
	}
	return t.model.Entity(trust.EntityID(fmt.Sprintf("%s:%d", kind, id)))
}

// context returns the handle of an activity, like entity: New's for a
// built-in one, else minted now under the activity's name.
func (t *TRMS) context(act grid.Activity) trust.Ctx {
	if uint(act) < uint(len(t.acts)) {
		return t.acts[act]
	}
	return t.model.Context(trust.Context(act.String()))
}

// inTopology reports whether New minted a handle for domain id in hs.
func inTopology(hs []trust.Ent, id grid.DomainID) bool {
	return uint(id) < uint(len(hs)) && hs[id] != trust.Ent{}
}

// applyTrustUpdate is the agent's table hook for a report about (cd, rd,
// act): quantise the fresh Γ score onto the discrete scale and update the
// table if the level changed.  A domain outside the topology or an
// activity that is not built in is ignored; the engine may track it but
// the table cannot.
func (t *TRMS) applyTrustUpdate(cd, rd grid.DomainID, act grid.Activity, score float64) {
	if !inTopology(t.cds, cd) || !inTopology(t.rds, rd) || uint(act) >= uint(len(t.acts)) {
		return
	}
	level := grid.LevelFromScore(score)
	if !level.Offerable() {
		level = grid.MaxOfferable // F quantises down: F is requirable only
	}
	if cur, exists := t.table.Replica().Get(cd, rd, act); exists && cur == level {
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
	if err := t.checkTask(task); err != nil {
		return nil, fmt.Errorf("core: task %w", err)
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

// checkTask checks a task's shape, for Submit and SubmitBatch alike: one
// finite, non-negative execution cost per machine, a ToA and a valid RTL.
// The error's text continues a phrase naming the task.
func (t *TRMS) checkTask(task Task) error {
	if nm := len(t.slot); len(task.EEC) != nm {
		return fmt.Errorf("has %d EEC entries for %d machines", len(task.EEC), nm)
	}
	for m, v := range task.EEC {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("EEC entry %d is %v, want a finite cost >= 0", m, v)
		}
	}
	if len(task.ToA.Activities) == 0 {
		return errors.New("has an empty ToA")
	}
	if !task.RTL.Valid() {
		return fmt.Errorf("RTL %v invalid", task.RTL)
	}
	return nil
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
// level.  The table is written on the caller's goroutine.
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
	x, y := t.entity(t.cds, "cd", p.CD), t.entity(t.rds, "rd", p.RD)
	for _, act := range toa.Activities {
		// A rejection is counted in AgentStats, not returned (see above).
		_ = t.agent.Apply(x, y, t.context(act), outcome, now, func(score float64) {
			t.applyTrustUpdate(p.CD, p.RD, act, score)
		})
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
