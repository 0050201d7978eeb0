package sim

import (
	"context"
	"fmt"

	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/stats"
)

// ZooCell names one configuration of the trust-model zoo: a registered
// trust model facing one adversary environment.
type ZooCell struct {
	Name   string
	Config fault.ZooConfig
}

// ZooCellResult aggregates fault.RunZoo over replications.
type ZooCellResult struct {
	TrustError     stats.Running
	DegradationPct stats.Running
	BadShare       stats.Running
}

// ZooGrid runs every model × scenario cell × Reps replications of the
// trust zoo on one worker pool and aggregates per cell.  Replication r of
// every cell draws from rng stream r of the master seed, so results are
// bit-identical under any worker count.
func ZooGrid(ctx context.Context, cells []ZooCell, opts GridOptions) ([]*ZooCellResult, error) {
	return runGrid(ctx, cells, opts,
		func(c ZooCell) string { return c.Name },
		func(c ZooCell, _ int, src *rng.Source, _ *runScratch) (*fault.ZooResult, error) {
			return fault.RunZoo(c.Config, src)
		},
		func(agg *ZooCellResult, r *fault.ZooResult) {
			agg.TrustError.Add(r.TrustError)
			agg.DegradationPct.Add(r.DegradationPct)
			agg.BadShare.Add(r.BadShare)
		})
}

// ZooCells builds the head-to-head grid: every scenario × every model, in
// scenario-major order so each environment's rows sit together in the
// report.
func ZooCells(models []string, scenarios []fault.ZooScenario) []ZooCell {
	cells := make([]ZooCell, 0, len(models)*len(scenarios))
	for _, sc := range scenarios {
		for _, m := range models {
			cells = append(cells, ZooCell{
				Name:   fmt.Sprintf("%s/%s", sc, m),
				Config: fault.ZooConfig{Model: m, Scenario: sc},
			})
		}
	}
	return cells
}
