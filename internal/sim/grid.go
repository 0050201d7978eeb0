package sim

import (
	"context"
	"fmt"

	"gridtrust/internal/exp"
	"gridtrust/internal/rng"
	"gridtrust/internal/stats"
)

// GridOptions parameterise a multi-cell experiment grid.
type GridOptions struct {
	// Seed is the master seed; replication r of every cell draws from rng
	// stream r derived from it, exactly as a standalone Compare would.
	Seed uint64
	// Reps is the replication count per cell.
	Reps int
	// Workers bounds the shared pool (<= 0 selects GOMAXPROCS).
	Workers int
	// OnCell, when set, receives one progress event per completed cell.
	OnCell func(exp.Progress)
	// Checkpoint, when set, journals every completed cell and restores
	// cells already on disk instead of re-running them, so an interrupted
	// grid resumed against the same directory re-executes only the cells
	// that never finished.  Restored cells fold to bit-identical
	// aggregates: every grid result type carries only exported fields on
	// its fold path (see exp.Options.Checkpoint).
	Checkpoint *exp.Checkpoint
	// CheckpointSalt namespaces this grid's cells inside a shared
	// checkpoint directory (e.g. the sweep mode plus the task count).
	CheckpointSalt string
}

// runGrid is the one path under every exported grid.  Each cell becomes an
// engine cell named name(cell) whose replication is run(cell, ...) on the
// executing worker's simulation scratch; every cell × Reps replication runs
// as one job stream on one pool; and each cell's replications are folded
// into a fresh A by add, in replication order, so the accumulators see the
// sequence a serial run would.
func runGrid[C, R, A any](ctx context.Context, cells []C, opts GridOptions,
	name func(C) string,
	run func(cell C, rep int, src *rng.Source, scr *runScratch) (*R, error),
	add func(agg *A, r *R),
) ([]*A, error) {
	if opts.Reps <= 0 {
		return nil, fmt.Errorf("sim: reps must be positive, got %d", opts.Reps)
	}
	ecells := make([]exp.Cell[R], len(cells))
	for i := range cells {
		cell := cells[i]
		ecells[i] = exp.Cell[R]{Name: name(cell), Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*R, error) {
			return run(cell, rep, src, scratch.(*runScratch))
		}}
	}
	res, err := exp.Run(ctx, ecells, exp.Options{
		Seed:           opts.Seed,
		Reps:           opts.Reps,
		Workers:        opts.Workers,
		NewScratch:     func() any { return &runScratch{} },
		OnCell:         opts.OnCell,
		Checkpoint:     opts.Checkpoint,
		CheckpointSalt: opts.CheckpointSalt,
	})
	if err != nil {
		return nil, err
	}
	out := make([]*A, len(cells))
	for i := range res {
		out[i] = new(A)
		for _, r := range res[i].Reps {
			add(out[i], r)
		}
	}
	return out, nil
}

// CompareCell names one scenario of a comparison grid.
type CompareCell struct {
	Name     string
	Scenario Scenario
}

// CompareGrid runs every cell × Reps paired replications as one job stream
// over a single worker pool and returns one Comparison per cell, in cell
// order.  Each cell's result is bit-identical to Compare on the same
// scenario with the same seed and replication count, regardless of worker
// count or cell order.
func CompareGrid(ctx context.Context, cells []CompareCell, opts GridOptions) ([]*Comparison, error) {
	for i := range cells {
		if err := cells[i].Scenario.Validate(); err != nil {
			return nil, err
		}
	}
	cmps, err := runGrid(ctx, cells, opts,
		func(c CompareCell) string {
			if c.Name == "" {
				return c.Scenario.Name
			}
			return c.Name
		},
		func(c CompareCell, rep int, src *rng.Source, scr *runScratch) (*PairResult, error) {
			pair, err := runPair(c.Scenario, src, scr)
			if pair != nil {
				pair.Rep = rep
			}
			return pair, err
		},
		func(cmp *Comparison, p *PairResult) {
			cmp.Unaware.add(p.Unaware)
			cmp.Aware.add(p.Aware)
			cmp.CompletionPairs.Add(p.Unaware.AvgCompletionTime, p.Aware.AvgCompletionTime)
		})
	for i := range cmps {
		cmps[i].Scenario, cmps[i].Reps = cells[i].Scenario, opts.Reps
	}
	return cmps, err
}

// EvolvingCell names one configuration of an evolving-trust grid.
type EvolvingCell struct {
	Name   string
	Config EvolvingConfig
}

// EvolvingSeriesResult aggregates RunEvolving over replications.  Trust
// levels are averaged over their numeric codes (A=1 … F=6).
type EvolvingSeriesResult struct {
	EarlyShare, LateShare   stats.Running
	FinalTrustReliable      stats.Running
	FinalTrustUnreliable    stats.Running
	IncidentsReliable       stats.Running
	IncidentsUnreliable     stats.Running
	MeanTCEarly, MeanTCLate stats.Running
}

// EvolvingGrid runs every cell × Reps independent replications of the
// evolving-trust experiment on one worker pool and aggregates per cell.
func EvolvingGrid(ctx context.Context, cells []EvolvingCell, opts GridOptions) ([]*EvolvingSeriesResult, error) {
	return runGrid(ctx, cells, opts,
		func(c EvolvingCell) string { return c.Name },
		func(c EvolvingCell, _ int, src *rng.Source, _ *runScratch) (*EvolvingResult, error) {
			return RunEvolving(c.Config, src)
		},
		func(agg *EvolvingSeriesResult, r *EvolvingResult) {
			agg.EarlyShare.Add(r.EarlyUnreliableShare)
			agg.LateShare.Add(r.LateUnreliableShare)
			agg.FinalTrustReliable.Add(float64(r.FinalTrustReliable))
			agg.FinalTrustUnreliable.Add(float64(r.FinalTrustUnreliable))
			agg.IncidentsReliable.Add(float64(r.Incidents[ReliableRD]))
			agg.IncidentsUnreliable.Add(float64(r.Incidents[UnreliableRD]))
			agg.MeanTCEarly.Add(r.MeanTCEarly)
			agg.MeanTCLate.Add(r.MeanTCLate)
		})
}

// StagingCell names one configuration of a data-staging grid.
type StagingCell struct {
	Name   string
	Config StagingConfig
}

// StagingSeriesResult aggregates RunStaging over replications.
type StagingSeriesResult struct {
	Improvement stats.Running
	PlainShare  stats.Running
}

// StagingGrid runs every cell × Reps replications of the data-staging
// experiment on one worker pool and aggregates per cell.  Each cell's
// aggregate is bit-identical to a serial StagingSeries run on the same
// seed and replication count.
func StagingGrid(ctx context.Context, cells []StagingCell, opts GridOptions) ([]*StagingSeriesResult, error) {
	return runGrid(ctx, cells, opts,
		func(c StagingCell) string { return c.Name },
		func(c StagingCell, _ int, src *rng.Source, _ *runScratch) (*StagingResult, error) {
			return RunStaging(c.Config, src)
		},
		func(agg *StagingSeriesResult, r *StagingResult) {
			agg.Improvement.Add(r.ImprovementPct)
			agg.PlainShare.Add(float64(r.PlainTransfers) / float64(r.Requests))
		})
}
