package sim

import (
	"strconv"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
)

// modelView routes the scheduler's trust-cost decisions through a live
// trust model (Scenario.TrustModel).  The static table-driven simulator
// treats trust costs as fixed inputs; under a model the view starts from
// the model's uninformed prior, observes every task completion (the CD of
// the finished request judges the machine's RD by the true offered trust
// level) and re-derives a decision-view TC from the model's evolving
// score whenever a completion changed what the model knows about it.
// Because all client domains feed the same model, each CD's direct
// experience doubles as every other CD's recommendation — the Figure 1
// recommender network arises from the workload itself.
//
// The fusion with the advertised table is conservative: the decision TC
// is the maximum of the claimed cost (the whitewashed table when the
// fault plan lies, the true table otherwise) and the model-derived cost.
// A higher TC means less trust, so an adversary can lower its claimed
// cost all it wants — once the model has seen it misbehave, the model's
// estimate dominates.
//
// Determinism: the view is called from the fault run loop, whose
// scheduling and completion calls are a function of the seed alone; the
// model contract (see trust.Model) guarantees bit-identical floats for
// identical call sequences, so runs remain bit-identical under any worker
// count.  All model calls pass now=0: the view installs no decay
// function, making scores time-independent.
//
// Caching.  The model scores (CD, RD, context) and the context is the
// request's ToA, so the quantised level is a function of the (CD,
// context) pair — the asker — and the machine's RD slot; the request's
// RTL enters only afterwards, through grid.TrustCostWith.  The model
// contract says Trust(x, y, c) reads nothing but state about subject y in
// context c, and noteFinish's Observe is the only call that changes
// state, about exactly one (context, slot).  So the view keeps one
// version per (context, slot), bumped by noteFinish, and two caches that
// stamp each entry with the version it was computed at: the level per
// (asker, slot) and the decision TC per (profile, slot).  An entry is
// valid while its stamp equals its (context, slot) version; a completion
// invalidates only the entries about what it observed, and every answer
// equals what asking the model afresh would return.
type modelView struct {
	truth   *workloadCosts
	claimed *workloadCosts // truth, or the whitewashed overlay when active
	model   trust.Model

	// The model is asked by handle, minted once in newModelView.  The
	// cost table numbers contexts and askers (distinct (CD, context)
	// pairs) and maps each profile to its asker (truth.askOf).
	rds   []trust.Ent // per RD slot: the resource domain, named "rd:<i>"
	ctxs  []trust.Ctx // per context: the ToA's rendering
	askCD []trust.Ent // per asker: the client domain, named "cd:<i>"

	ver    []uint64 // per (context, slot): observations so far, plus 1
	lvl    []int8   // per (asker, slot): an offerable level, A-E
	lvlVer []uint64
	dec    []int // per (profile, slot)
	decVer []uint64
}

// viewModelConfig is the trust configuration every scenario-level model
// runs under: direct experience dominates (α=0.7), strangers start at the
// scale midpoint, and observations commit immediately so the very next
// scheduling decision sees them.
func viewModelConfig() trust.Config {
	return trust.Config{
		Alpha:        0.7,
		Beta:         0.3,
		InitialScore: (trust.MinScore + trust.MaxScore) / 2,
		UpdateBatch:  1,
	}
}

// newModelView builds the view for the scenario's trust model over the
// true costs and the (possibly whitewashed) claimed costs.
func newModelView(sc Scenario, truth, claimed *workloadCosts) (*modelView, error) {
	model, err := trust.NewModel(sc.TrustModel, viewModelConfig())
	if err != nil {
		return nil, err
	}
	w := truth.w
	slots, askers := len(truth.slotRD), len(truth.askCD)
	v := &modelView{
		truth:   truth,
		claimed: claimed,
		model:   model,
		rds:     make([]trust.Ent, slots),
		ctxs:    make([]trust.Ctx, len(truth.ctxReq)),
		askCD:   make([]trust.Ent, askers),
		ver:     make([]uint64, len(truth.ctxReq)*slots),
		lvl:     make([]int8, askers*slots),
		lvlVer:  make([]uint64, askers*slots),
		dec:     make([]int, len(truth.tc)),
		decVer:  make([]uint64, len(truth.tc)),
	}
	// Every name is rendered into one buffer; minting copies it.
	var name []byte
	entity := func(prefix string, id grid.DomainID) trust.Ent {
		name = strconv.AppendInt(append(name[:0], prefix...), int64(id), 10)
		return model.Entity(trust.EntityID(name))
	}
	for s, rd := range truth.slotRD {
		v.rds[s] = entity("rd:", rd)
	}
	cds := make([]trust.Ent, max(w.NumCDs, 0))
	for i := range cds {
		cds[i] = entity("cd:", grid.DomainID(i))
	}
	// A context is the rendering of an ordered ToA, which is one-to-one;
	// each is rendered from its first request.
	for c, r := range truth.ctxReq {
		name = w.Requests[r].ToA.Append(name[:0])
		v.ctxs[c] = model.Context(trust.Context(name))
	}
	// A request may name a CD past NumCDs that the table has rows for:
	// it gets a handle of its own.
	for a, cd := range truth.askCD {
		if cd >= 0 && int(cd) < len(cds) {
			v.askCD[a] = cds[cd]
		} else {
			v.askCD[a] = entity("cd:", cd)
		}
	}
	for i := range v.ver {
		v.ver[i] = 1
	}
	return v, nil
}

// NumRequests returns the instance's request count.
func (v *modelView) NumRequests() int { return v.truth.NumRequests() }

// MachineIndex returns the machine → RD slot map.
func (v *modelView) MachineIndex() []int32 { return v.truth.rdOf }

// CostRows returns request r's true execution costs (the model shapes
// trust, not machine speed) and its decision-view trust costs per RD slot,
// refreshing stale slots in slot order: their first machines' order, so
// the model is asked in the order a walk over the machines would ask it.
func (v *modelView) CostRows(r int) ([]float64, []int, error) {
	j, slots := v.truth.rowOf[r], len(v.rds)
	for s := 0; s < slots; s++ {
		if _, err := v.decisionTC(j, s); err != nil {
			return nil, nil, err
		}
	}
	return v.truth.eecRow(r), v.dec[int(j)*slots : (int(j)+1)*slots], nil
}

// level returns the trust level the model currently implies for asker a
// on RD slot s, whose (context, slot) version is cur: the model's score
// for (CD, RD) in the asker's context, quantised, with non-offerable
// levels capped at the maximum offerable, mirroring core's table updates.
func (v *modelView) level(a int32, s int, cur uint64) (grid.TrustLevel, error) {
	k := int(a)*len(v.rds) + s
	if v.lvlVer[k] == cur {
		return grid.TrustLevel(v.lvl[k]), nil
	}
	score, err := v.model.TrustOf(v.askCD[a], v.rds[s], v.ctxs[v.truth.askCtx[a]], 0)
	if err != nil {
		return 0, err
	}
	lvl := grid.LevelFromScore(score)
	if !lvl.Offerable() {
		lvl = grid.MaxOfferable
	}
	v.lvl[k], v.lvlVer[k] = int8(lvl), cur
	return lvl, nil
}

// decisionTC returns the decision-view trust cost of profile j on RD slot
// s: the conservative maximum of the claimed table cost and the model's
// level priced through the scenario's ETS rule (the cost table's
// trustCost, so the build and the view share one price per level).
func (v *modelView) decisionTC(j int32, s int) (int, error) {
	k := int(j)*len(v.rds) + s
	cur := v.ver[int(v.truth.ctxOf[j])*len(v.rds)+s]
	if v.decVer[k] == cur {
		return v.dec[k], nil
	}
	lvl, err := v.level(v.truth.askOf[j], s, cur)
	if err != nil {
		return 0, err
	}
	tc, err := v.truth.trustCost(s, v.truth.w.Requests[v.truth.rowReq[j]].ClientRTL, lvl)
	if err != nil {
		return 0, err
	}
	if ctc := v.claimed.tc[k]; ctc > tc {
		tc = ctc
	}
	v.dec[k], v.decVer[k] = tc, cur
	return tc, nil
}

// noteFinish feeds one completed task back into the model: the request's
// CD observes the machine's RD with the RD's true offered trust level as
// the outcome, so over the run the model's scores converge on the truth
// the adversarial table misreports.  The OTL is the table's for the
// request's profile on the slot, read when the costs were built.
func (v *modelView) noteFinish(r, m int) error {
	s := int(v.truth.rdOf[m])
	j := v.truth.rowOf[r]
	a := v.truth.askOf[j]
	otl := v.truth.otl[int(a)*len(v.rds)+s]
	v.ver[int(v.truth.ctxOf[j])*len(v.rds)+s]++
	_, err := v.model.ObserveOf(v.askCD[a], v.rds[s], v.ctxs[v.truth.ctxOf[j]], float64(otl), 0)
	return err
}

// tableError measures the final decision-view gap: the mean absolute
// difference between the decision TC (post-learning) and the true TC over
// every (request, machine) pair — the RunResult.TrustTableError a
// model-driven run reports.  It reads through decisionTC, so only entries
// a completion invalidated are asked again.
func (v *modelView) tableError() (float64, error) {
	var gap int64
	for k, ttc := range v.truth.tc {
		j, s := k/len(v.rds), k%len(v.rds)
		dtc, err := v.decisionTC(int32(j), s)
		if err != nil {
			return 0, err
		}
		gap += v.truth.pairGap(dtc, ttc, v.truth.rowSize[j], s)
	}
	return v.truth.meanGap(gap), nil
}

var _ sched.Costs = (*modelView)(nil)
