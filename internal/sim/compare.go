package sim

import (
	"context"
	"fmt"

	"gridtrust/internal/rng"
	"gridtrust/internal/stats"
	"gridtrust/internal/workload"
)

// PairResult is one paired replication: the same workload scheduled
// trust-unaware and trust-aware.
type PairResult struct {
	// Rep is the replication index whose rng stream generated the
	// workload: stream Rep of the master seed under Compare/CompareGrid,
	// 0 for a standalone RunPair (the caller's source is the whole
	// stream).
	Rep     int
	Unaware *RunResult
	Aware   *RunResult
}

// RunPair generates the workload for one replication stream and runs both
// policies on it.  Because the workload is materialised once, the pairing
// is exact: both runs see identical EECs, arrivals, RTLs and OTLs.
func RunPair(sc Scenario, src *rng.Source) (*PairResult, error) {
	return runPair(sc, src, &runScratch{})
}

// runPair is RunPair with caller-provided scratch: both runs of the pair
// share one scratch, and Compare's workers reuse theirs across every
// replication they process.
func runPair(sc Scenario, src *rng.Source, scr *runScratch) (*PairResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	w, err := workload.NewWorkload(src, sc.WorkloadSpec())
	if err != nil {
		return nil, err
	}
	// Derive the fault seed from the replication stream AFTER workload
	// generation: an inactive plan consumes nothing (fault-free replications
	// stay byte-identical to pre-fault binaries), an active one gives both
	// policy runs of the pair the identical fault timeline.
	if sc.Fault.Active() {
		sc.Fault.Seed = src.Uint64()
	}
	awareP, unawareP, err := sc.policies()
	if err != nil {
		return nil, err
	}
	un, err := runTraced(sc, w, unawareP, nil, scr)
	if err != nil {
		return nil, fmt.Errorf("sim: unaware run: %w", err)
	}
	aw, err := runTraced(sc, w, awareP, nil, scr)
	if err != nil {
		return nil, fmt.Errorf("sim: aware run: %w", err)
	}
	return &PairResult{Unaware: un, Aware: aw}, nil
}

// Aggregate summarises one policy's metrics across replications.
type Aggregate struct {
	AvgCompletion stats.Running
	Utilization   stats.Running
	Makespan      stats.Running
	MeanTrustCost stats.Running
	P95Completion stats.Running
	MissRate      stats.Running

	// Fault-run aggregates; all-zero distributions on fault-free grids.
	Failures        stats.Running
	Requeues        stats.Running
	WastedWork      stats.Running
	TrustTableError stats.Running
}

// add folds one run into the aggregate.
func (a *Aggregate) add(r *RunResult) {
	a.AvgCompletion.Add(r.AvgCompletionTime)
	a.Utilization.Add(r.MeanUtilization)
	a.Makespan.Add(r.Makespan)
	a.MeanTrustCost.Add(r.MeanTrustCost)
	a.P95Completion.Add(r.P95Completion)
	a.MissRate.Add(r.DeadlineMissRate)
	a.Failures.Add(float64(r.Failures))
	a.Requeues.Add(float64(r.Requeues))
	a.WastedWork.Add(r.WastedWork)
	a.TrustTableError.Add(r.TrustTableError)
}

// Comparison aggregates paired replications of a scenario.
type Comparison struct {
	Scenario Scenario
	Reps     int

	Unaware Aggregate
	Aware   Aggregate

	// CompletionPairs pairs per-replication average completion times
	// (unaware as baseline), yielding the paper's Improvement column
	// with a significance test.
	CompletionPairs stats.Paired
}

// ImprovementPercent is the paper's improvement metric on average
// completion time: (unaware − aware)/unaware × 100 over replication means.
func (c *Comparison) ImprovementPercent() float64 {
	return c.CompletionPairs.ImprovementPercent()
}

// Compare runs reps paired replications of the scenario using workers
// goroutines (workers <= 0 selects GOMAXPROCS).  Each replication draws
// its workload from an independent, reproducible rng stream derived from
// seed, so results are identical regardless of worker count — the
// parallelism is pure speed.  Compare is a single-cell grid; CompareGrid
// schedules many scenarios on the same pool.
func Compare(sc Scenario, seed uint64, reps, workers int) (*Comparison, error) {
	cmps, err := CompareGrid(context.Background(),
		[]CompareCell{{Name: sc.Name, Scenario: sc}},
		GridOptions{Seed: seed, Reps: reps, Workers: workers})
	if err != nil {
		return nil, err
	}
	return cmps[0], nil
}
