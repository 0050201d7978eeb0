package sim

import (
	"fmt"

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

	rds []trust.EntityID // per RD slot: resource-domain entity name, "rd:<i>"

	// Contexts are the distinct ToA renderings; an asker is a distinct
	// (CD, context) pair.
	ctxs   []trust.Context  // per context
	askCD  []trust.EntityID // per asker: client-domain entity name, "cd:<i>"
	askCtx []int32          // per asker: its context
	ctxOf  []int32          // per profile: its context
	askOf  []int32          // per profile: its asker

	ver    []uint64          // per (context, slot): observations so far, plus 1
	lvl    []grid.TrustLevel // per (asker, slot)
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
	slots, profiles := len(truth.slotRD), len(truth.rowReq)
	v := &modelView{
		truth:   truth,
		claimed: claimed,
		model:   model,
		rds:     make([]trust.EntityID, slots),
		ctxOf:   make([]int32, profiles),
		askOf:   make([]int32, profiles),
		dec:     make([]int, len(truth.tc)),
		decVer:  make([]uint64, len(truth.tc)),
	}
	for s, rd := range truth.slotRD {
		v.rds[s] = trust.EntityID(fmt.Sprintf("rd:%d", rd))
	}
	cds := make([]trust.EntityID, w.NumCDs)
	for i := range cds {
		cds[i] = trust.EntityID(fmt.Sprintf("cd:%d", i))
	}
	ctxIdx := map[trust.Context]int32{}
	for j, r := range truth.rowReq {
		ctx := trust.Context(w.Requests[r].ToA.String())
		c, ok := ctxIdx[ctx]
		if !ok {
			c = int32(len(v.ctxs))
			ctxIdx[ctx] = c
			v.ctxs = append(v.ctxs, ctx)
		}
		v.ctxOf[j] = c
	}
	askIdx := make([]int32, len(v.ctxs)*len(cds)) // (context, CD) → asker + 1
	for j, r := range truth.rowReq {
		cd := w.Requests[r].CD
		k := int(v.ctxOf[j])*len(cds) + int(cd)
		if askIdx[k] == 0 {
			v.askCD = append(v.askCD, cds[cd])
			v.askCtx = append(v.askCtx, v.ctxOf[j])
			askIdx[k] = int32(len(v.askCD))
		}
		v.askOf[j] = askIdx[k] - 1
	}
	v.ver = make([]uint64, len(v.ctxs)*slots)
	for i := range v.ver {
		v.ver[i] = 1
	}
	v.lvl = make([]grid.TrustLevel, len(v.askCD)*slots)
	v.lvlVer = make([]uint64, len(v.lvl))
	return v, nil
}

// NumRequests returns the instance's request count.
func (v *modelView) NumRequests() int { return v.truth.NumRequests() }

// NumMachines returns the instance's machine count.
func (v *modelView) NumMachines() int { return v.truth.NumMachines() }

// EEC delegates to the true execution costs: the model shapes trust, not
// machine speed.
func (v *modelView) EEC(r, m int) float64 { return v.truth.EEC(r, m) }

// level returns the trust level the model currently implies for asker a
// on RD slot s, whose (context, slot) version is cur: the model's score
// for (CD, RD) in the asker's context, quantised, with non-offerable
// levels capped at the maximum offerable, mirroring core's table updates.
func (v *modelView) level(a int32, s int, cur uint64) (grid.TrustLevel, error) {
	k := int(a)*len(v.rds) + s
	if v.lvlVer[k] == cur {
		return v.lvl[k], nil
	}
	score, err := v.model.Trust(v.askCD[a], v.rds[s], v.ctxs[v.askCtx[a]], 0)
	if err != nil {
		return 0, err
	}
	lvl := grid.LevelFromScore(score)
	if !lvl.Offerable() {
		lvl = grid.MaxOfferable
	}
	v.lvl[k], v.lvlVer[k] = lvl, cur
	return lvl, nil
}

// decisionTC returns the decision-view trust cost of profile j on RD slot
// s: the conservative maximum of the claimed table cost and the model's
// level priced through the scenario's ETS rule.
func (v *modelView) decisionTC(j int32, s int) (int, error) {
	k := int(j)*len(v.rds) + s
	cur := v.ver[int(v.ctxOf[j])*len(v.rds)+s]
	if v.decVer[k] == cur {
		return v.dec[k], nil
	}
	lvl, err := v.level(v.askOf[j], s, cur)
	if err != nil {
		return 0, err
	}
	w := v.truth.w
	req := &w.Requests[v.truth.rowReq[j]]
	tc, err := grid.TrustCostWith(w.Spec.ETSRule, req.ClientRTL, w.ResourceRTL[v.truth.slotRD[s]], lvl)
	if err != nil {
		return 0, err
	}
	if ctc := v.claimed.tc[k]; ctc > tc {
		tc = ctc
	}
	v.dec[k], v.decVer[k] = tc, cur
	return tc, nil
}

// TrustCost returns the decision-view trust cost of request r on machine m.
func (v *modelView) TrustCost(r, m int) (int, error) {
	if err := v.truth.checkIndex(r, m); err != nil {
		return 0, err
	}
	return v.decisionTC(v.truth.rowOf[r], int(v.truth.rdOf[m]))
}

// noteFinish feeds one completed task back into the model: the request's
// CD observes the machine's RD with the RD's true offered trust level as
// the outcome, so over the run the model's scores converge on the truth
// the adversarial table misreports.
func (v *modelView) noteFinish(r, m int) error {
	w := v.truth.w
	req := w.Requests[r]
	s := v.truth.rdOf[m]
	otl, err := w.Table.OTL(req.CD, v.truth.slotRD[s], req.ToA)
	if err != nil {
		return err
	}
	j := v.truth.rowOf[r]
	v.ver[int(v.ctxOf[j])*len(v.rds)+int(s)]++
	_, err = v.model.Observe(v.askCD[v.askOf[j]], v.rds[s], v.ctxs[v.ctxOf[j]], float64(otl), 0)
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
