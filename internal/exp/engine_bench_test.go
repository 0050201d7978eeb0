package exp

import (
	"context"
	"testing"
	"time"

	"gridtrust/internal/rng"
)

// BenchmarkEngineFlattening isolates the scheduling-structure win from
// CPU parallelism by using latency-bound jobs (a 2ms wait stands in for
// any replication whose wall time is not pure local compute).  The
// "serial-cells" shape runs one Run call per cell — each cell's pool
// caps concurrency at its own replication count and drains fully before
// the next cell starts, exactly like the legacy per-study pools.  The
// "global-pool" shape schedules the same cells×reps in one call, so the
// worker pool never idles at cell boundaries.  With 12 cells × 4 reps on
// 8 workers the flattened grid completes in roughly half the wall time
// even on a single-core host.
func BenchmarkEngineFlattening(b *testing.B) {
	const (
		nCells  = 12
		reps    = 4
		workers = 8
		wait    = 2 * time.Millisecond
	)
	cell := Cell[int]{Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*int, error) {
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}
	cells := make([]Cell[int], nCells)
	for i := range cells {
		cells[i] = cell
		cells[i].Name = "cell"
	}
	b.Run("serial-cells", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for c := range cells {
				if _, err := Run(context.Background(), cells[c:c+1],
					Options{Seed: 1, Reps: reps, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("global-pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Run(context.Background(), cells,
				Options{Seed: 1, Reps: reps, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
