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
// level) and re-derives the decision-view TC from the model's evolving
// score after every completion.  Because all client domains feed the
// same model, each CD's direct experience doubles as every other CD's
// recommendation — the Figure 1 recommender network arises from the
// workload itself.
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
// The model scores (CD, RD, context) and the context is the request's
// ToA, so a decision TC is a function of the request's profile — the one
// workloadCosts keys its rows on — and the machine's RD slot.  Model.Trust
// only reads, and only noteFinish's Observe changes what it returns, so
// between two completions the view asks the model once per (profile,
// slot) and serves every other lookup from dec.
type modelView struct {
	truth   *workloadCosts
	claimed *workloadCosts // truth, or the whitewashed overlay when active
	model   trust.Model

	cds  []trust.EntityID // client-domain entity names, "cd:<i>"
	rds  []trust.EntityID // per RD slot: resource-domain entity name, "rd:<i>"
	ctxs []trust.Context  // per profile: its composed ToA as a context

	// dec caches decision TCs per (profile, slot); an entry is valid
	// while its stamp equals epoch, which noteFinish advances.
	dec   []int
	stamp []uint64
	epoch uint64
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
	v := &modelView{
		truth:   truth,
		claimed: claimed,
		model:   model,
		cds:     make([]trust.EntityID, w.NumCDs),
		rds:     make([]trust.EntityID, len(truth.slotRD)),
		ctxs:    make([]trust.Context, len(truth.rowReq)),
		dec:     make([]int, len(truth.tc)),
		stamp:   make([]uint64, len(truth.tc)),
		epoch:   1,
	}
	for i := range v.cds {
		v.cds[i] = trust.EntityID(fmt.Sprintf("cd:%d", i))
	}
	for s, rd := range truth.slotRD {
		v.rds[s] = trust.EntityID(fmt.Sprintf("rd:%d", rd))
	}
	for j, r := range truth.rowReq {
		v.ctxs[j] = trust.Context(w.Requests[r].ToA.String())
	}
	return v, nil
}

// NumRequests returns the instance's request count.
func (v *modelView) NumRequests() int { return v.truth.NumRequests() }

// NumMachines returns the instance's machine count.
func (v *modelView) NumMachines() int { return v.truth.NumMachines() }

// EEC delegates to the true execution costs: the model shapes trust, not
// machine speed.
func (v *modelView) EEC(r, m int) float64 { return v.truth.EEC(r, m) }

// modelTC derives the trust cost the model currently implies for profile
// j on RD slot s: the model's score for (CD, RD) in the profile's ToA
// context is quantised to a trust level (non-offerable levels cap at the
// maximum offerable, mirroring core's table updates) and priced through
// the scenario's ETS rule.
func (v *modelView) modelTC(j int32, s int) (int, error) {
	w := v.truth.w
	req := &w.Requests[v.truth.rowReq[j]]
	score, err := v.model.Trust(v.cds[req.CD], v.rds[s], v.ctxs[j], 0)
	if err != nil {
		return 0, err
	}
	lvl := grid.LevelFromScore(score)
	if !lvl.Offerable() {
		lvl = grid.MaxOfferable
	}
	return grid.TrustCostWith(w.Spec.ETSRule, req.ClientRTL, w.ResourceRTL[v.truth.slotRD[s]], lvl)
}

// decisionTC returns the decision-view trust cost of profile j on RD slot
// s: the conservative maximum of the claimed table cost and the
// model-derived cost.
func (v *modelView) decisionTC(j int32, s int) (int, error) {
	k := int(j)*len(v.rds) + s
	if v.stamp[k] == v.epoch {
		return v.dec[k], nil
	}
	tc, err := v.modelTC(j, s)
	if err != nil {
		return 0, err
	}
	if ctc := v.claimed.tc[k]; ctc > tc {
		tc = ctc
	}
	v.dec[k], v.stamp[k] = tc, v.epoch
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
	v.epoch++
	_, err = v.model.Observe(v.cds[req.CD], v.rds[s], v.ctxs[v.truth.rowOf[r]], float64(otl), 0)
	return err
}

// tableError measures the final decision-view gap: the mean absolute
// difference between the decision TC (post-learning) and the true TC over
// every (request, machine) pair — the RunResult.TrustTableError a
// model-driven run reports.
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
