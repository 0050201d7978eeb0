package sim

import (
	"context"
	"fmt"

	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/stats"
)

// FaultStudyCell names one configuration of the adversary study grid: a
// collusion scenario run with or without the recommender-trust defense.
type FaultStudyCell struct {
	Name   string
	Config fault.StudyConfig
}

// FaultStudyResult aggregates fault.RunStudy over replications.
type FaultStudyResult struct {
	TrustError     stats.Running
	DegradationPct stats.Running
	BadShare       stats.Running
	MeanLiarR      stats.Running
	MeanHonestR    stats.Running
}

// FaultStudyGrid runs every cell × Reps replications of the adversary
// study on one worker pool and aggregates per cell.  Replication r of
// every cell draws from rng stream r of the master seed, so results are
// bit-identical under any worker count.
func FaultStudyGrid(ctx context.Context, cells []FaultStudyCell, opts GridOptions) ([]*FaultStudyResult, error) {
	return runGrid(ctx, cells, opts,
		func(c FaultStudyCell) string { return c.Name },
		func(c FaultStudyCell, _ int, src *rng.Source, _ *runScratch) (*fault.StudyResult, error) {
			return fault.RunStudy(c.Config, src)
		},
		func(agg *FaultStudyResult, r *fault.StudyResult) {
			agg.TrustError.Add(r.TrustError)
			agg.DegradationPct.Add(r.DegradationPct)
			agg.BadShare.Add(r.BadShare)
			agg.MeanLiarR.Add(r.MeanLiarR)
			agg.MeanHonestR.Add(r.MeanHonestR)
		})
}

// FaultStudyCells builds the canonical adversary sweep: for each liar
// fraction, one cell with the R-weighted defense off (the paper's
// reputation formula amputated) and one with it on.  Cells come in
// (unweighted, weighted) pairs per fraction, in the given order.
func FaultStudyCells(liarFractions []float64) []FaultStudyCell {
	cells := make([]FaultStudyCell, 0, 2*len(liarFractions))
	for _, lf := range liarFractions {
		cells = append(cells,
			FaultStudyCell{Name: fmt.Sprintf("liar=%.2f/unweighted", lf), Config: fault.StudyConfig{LiarFraction: lf}},
			FaultStudyCell{Name: fmt.Sprintf("liar=%.2f/R-weighted", lf), Config: fault.StudyConfig{LiarFraction: lf, RWeighted: true}},
		)
	}
	return cells
}

// ChurnCells builds a churn × adversary CompareGrid sweep over the base
// scenario: for every MTBF (0 disables churn) and adversary fraction, one
// cell whose scenario carries the corresponding fault plan.  MTTR is fixed
// at a tenth of the MTBF floor so availability stays high enough to finish
// the workload.
func ChurnCells(base Scenario, mtbfs, adversaryFractions []float64) []CompareCell {
	var cells []CompareCell
	for _, mtbf := range mtbfs {
		for _, af := range adversaryFractions {
			sc := base
			sc.Fault = fault.Plan{AdversaryFraction: af}
			if mtbf > 0 {
				sc.Fault.MTBF = mtbf
				sc.Fault.MTTR = mtbf / 10
			}
			name := fmt.Sprintf("mtbf=%g/adv=%.2f", mtbf, af)
			sc.Name = fmt.Sprintf("%s/%s", base.Name, name)
			cells = append(cells, CompareCell{Name: name, Scenario: sc})
		}
	}
	return cells
}
