// Package exp is the experiment engine: it executes a declarative grid of
// experiment cells — each a named configuration with a per-replication run
// function — as one stream of cell×replication jobs over a single global
// worker pool.
//
// The engine owns the concerns every study used to reimplement:
//
//   - Seeding.  Replication r of every cell draws from rng stream r of the
//     master seed (rng.Streams), so results are bit-identical regardless of
//     worker count or cell order, and identical to running each cell alone.
//   - Scratch.  Each worker owns one scratch value (Options.NewScratch) and
//     hands it to every replication it executes, so steady-state runs reuse
//     buffers instead of allocating.
//   - Cancellation.  The context is honoured between jobs and passed to run
//     functions; a cancelled grid drains promptly and reports ctx.Err().
//   - Isolation.  A panicking replication is recovered and surfaced as a
//     cell-tagged error instead of crashing the process; other cells keep
//     running.
//   - Progress.  An optional hook fires as each cell's final replication
//     completes, with the cell's summed execution time.
//
// Flattening cells×replications into one pool is the point: a 10-cell ×
// 30-replication sweep becomes 300 concurrently schedulable jobs instead of
// ten sequential 30-job pools, so small cells no longer leave workers idle
// at each cell boundary.
package exp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/rng"
)

// RunFunc executes one replication of a cell and returns its result of
// type R.  rep is the replication index within the cell; src is the
// deterministic rng stream derived for that index (stream rep of the
// master seed, identical across cells); scratch is the executing worker's
// scratch value (nil unless Options.NewScratch is set) and must not be
// retained past the call.  The returned value is collected into
// CellResult.Reps[rep].
type RunFunc[R any] func(ctx context.Context, rep int, src *rng.Source, scratch any) (*R, error)

// Cell is one unit of an experiment grid: a named configuration whose
// replications the engine schedules independently.
type Cell[R any] struct {
	// Name tags the cell in results, errors and progress events.
	Name string
	// Reps overrides Options.Reps for this cell when positive.
	Reps int
	// Run executes one replication.
	Run RunFunc[R]
}

// Options configure a grid run.
type Options struct {
	// Seed is the master seed; replication r of every cell draws from
	// rng stream r derived from it.
	Seed uint64
	// Reps is the default replication count for cells that do not set
	// their own.
	Reps int
	// Workers bounds the pool (<= 0 selects GOMAXPROCS).
	Workers int
	// NewScratch, when set, constructs one scratch value per worker,
	// passed to every replication that worker executes.
	NewScratch func() any
	// OnCell, when set, is called once per cell as its final replication
	// completes.  Calls are serialised, so the hook may print.
	OnCell func(Progress)
	// Checkpoint, when set, makes the grid resumable: every error-free
	// cell is journalled through it as it drains, and cells found in it
	// are restored without re-executing any replication.  A cell is
	// stored as the JSON array of its replications, so restored
	// replications fold through the same aggregation paths as fresh ones
	// exactly when R's fold path is exported fields (Go's JSON float64
	// encoding round-trips bit for bit).
	Checkpoint *Checkpoint
	// CheckpointSalt namespaces this grid's cells inside a shared
	// checkpoint directory (typically the sweep mode plus any knobs that
	// change cell contents without changing cell names).
	CheckpointSalt string
}

// Progress describes one completed cell.
type Progress struct {
	// Cell and Index identify the cell.
	Cell  string
	Index int
	// Reps is the cell's replication count.
	Reps int
	// Done and Cells count completed cells (including this one) and the
	// grid total.
	Done, Cells int
	// Work is the summed execution time of the cell's replications (not
	// wall clock: replications run concurrently).
	Work time.Duration
	// Err is the cell's error, if any replication failed.
	Err error
	// Cached reports that the cell was restored from Options.Checkpoint
	// instead of executed; Work is zero for cached cells.
	Cached bool
}

// CellResult collects one cell's outputs.
type CellResult[R any] struct {
	// Name echoes the cell.
	Name string
	// Reps holds per-replication outputs in replication order.  Entries
	// may be nil for replications skipped by cancellation or failure.
	Reps []*R
	// Work is the summed execution time of the replications.
	Work time.Duration
	// Err is the lowest-replication error, tagged with cell name and
	// replication index, or nil.
	Err error
}

// job addresses one replication of one cell.
type job struct{ cell, rep int }

// cellState tracks one cell's completion across workers.
type cellState struct {
	remaining atomic.Int64
	workNanos atomic.Int64
}

// Run executes every cell×replication of the grid on one worker pool and
// returns per-cell results in cell order.  The error is ctx.Err() when the
// grid was cancelled, otherwise the join of all cell errors (nil when every
// replication succeeded).  Partial results are returned alongside a
// non-nil error: cells that completed are intact.
func Run[R any](ctx context.Context, cells []Cell[R], opts Options) ([]CellResult[R], error) {
	if len(cells) == 0 {
		return nil, nil
	}
	results := make([]CellResult[R], len(cells))
	total := 0
	maxReps := 0
	for i := range cells {
		reps := cells[i].Reps
		if reps <= 0 {
			reps = opts.Reps
		}
		if reps <= 0 {
			return nil, fmt.Errorf("exp: cell %q has no replication count and Options.Reps is unset", cells[i].Name)
		}
		if cells[i].Run == nil {
			return nil, fmt.Errorf("exp: cell %q has a nil run function", cells[i].Name)
		}
		results[i] = CellResult[R]{Name: cells[i].Name, Reps: make([]*R, reps)}
		total += reps
		if reps > maxReps {
			maxReps = reps
		}
	}
	// Restore cells the checkpoint already holds; their replications are
	// never dispatched.  An entry that fails to decode or carries the
	// wrong replication count is treated as a miss and re-executed.
	// Restored cells complete up front: they are counted done and their
	// progress events fire in cell order before any live work starts.
	keys := make([]string, len(cells))
	cached := make([]bool, len(cells))
	var done atomic.Int64
	if opts.Checkpoint != nil {
		for i := range cells {
			keys[i] = cellKey(opts.CheckpointSalt, cells[i].Name, opts.Seed, len(results[i].Reps))
			blob, ok := opts.Checkpoint.lookup(keys[i])
			if !ok {
				continue
			}
			reps, err := decodeReps[R](blob, len(results[i].Reps))
			if err != nil {
				continue
			}
			cached[i] = true
			results[i].Reps = reps
			total -= len(reps)
			n := done.Add(1)
			if opts.OnCell != nil {
				opts.OnCell(Progress{
					Cell: results[i].Name, Index: i, Reps: len(reps),
					Done: int(n), Cells: len(cells), Cached: true,
				})
			}
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}

	// Stream r is identical for every cell (it depends only on the master
	// seed), so derive the states once and clone per job.  This preserves
	// the legacy behaviour of running each cell's replications on
	// rng.Streams(seed, reps), and makes results invariant under cell
	// reordering.
	tmpl := rng.Streams(opts.Seed, maxReps)

	states := make([]cellState, len(cells))
	errs := make([][]error, len(cells))
	for i := range cells {
		states[i].remaining.Store(int64(len(results[i].Reps)))
		errs[i] = make([]error, len(results[i].Reps))
	}

	jobs := make(chan job)
	var wg sync.WaitGroup
	var hookMu sync.Mutex

	// Checkpoint failures must not poison cell results; they are joined
	// into the run error instead, so a sweep never silently loses the
	// durability it was asked for.
	var ckMu sync.Mutex
	var ckErrs []error
	ckFail := func(err error) {
		ckMu.Lock()
		ckErrs = append(ckErrs, err)
		ckMu.Unlock()
	}

	// finishRep folds one completed replication into its cell's state and
	// fires the progress hook when the cell drains.
	finishRep := func(j job, elapsed time.Duration) {
		st := &states[j.cell]
		st.workNanos.Add(int64(elapsed))
		if st.remaining.Add(-1) != 0 {
			return
		}
		res := &results[j.cell]
		res.Work = time.Duration(st.workNanos.Load())
		for rep, err := range errs[j.cell] {
			if err != nil {
				res.Err = fmt.Errorf("exp: cell %q replication %d: %w", res.Name, rep, err)
				break
			}
		}
		if opts.Checkpoint != nil && res.Err == nil {
			if blob, err := encodeReps(res.Reps); err != nil {
				ckFail(fmt.Errorf("exp: checkpoint encode cell %q: %w", res.Name, err))
			} else if err := opts.Checkpoint.store(keys[j.cell], blob); err != nil {
				ckFail(fmt.Errorf("exp: checkpoint cell %q: %w", res.Name, err))
			}
		}
		n := done.Add(1)
		if opts.OnCell != nil {
			hookMu.Lock()
			opts.OnCell(Progress{
				Cell: res.Name, Index: j.cell, Reps: len(res.Reps),
				Done: int(n), Cells: len(cells), Work: res.Work, Err: res.Err,
			})
			hookMu.Unlock()
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch any
			if opts.NewScratch != nil {
				scratch = opts.NewScratch()
			}
			for j := range jobs {
				start := time.Now()
				src, err := rng.NewFromState(tmpl[j.rep].State())
				if err == nil {
					results[j.cell].Reps[j.rep], err = runRep(ctx, &cells[j.cell], j.rep, src, scratch)
				}
				errs[j.cell][j.rep] = err
				finishRep(j, time.Since(start))
			}
		}()
	}

	// Dispatch all cells×replications as one job stream; stop feeding as
	// soon as the context is cancelled.
	cancelled := false
dispatch:
	for c := range cells {
		if cached[c] {
			continue
		}
		for r := range results[c].Reps {
			select {
			case jobs <- job{cell: c, rep: r}:
			case <-ctx.Done():
				cancelled = true
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()

	if cancelled || ctx.Err() != nil {
		return results, ctx.Err()
	}
	var cellErrs []error
	for i := range results {
		if results[i].Err != nil {
			cellErrs = append(cellErrs, results[i].Err)
		}
	}
	cellErrs = append(cellErrs, ckErrs...)
	return results, errors.Join(cellErrs...)
}

// runRep invokes a cell's run function with panic isolation: a panicking
// replication becomes an error instead of taking down the process.
func runRep[R any](ctx context.Context, c *Cell[R], rep int, src *rng.Source, scratch any) (out *R, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return c.Run(ctx, rep, src, scratch)
}

// encodeReps is the durable form of one completed cell: the JSON array of
// its replications, in replication order.
func encodeReps[R any](reps []*R) ([]byte, error) {
	for i, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("replication %d returned no result", i)
		}
	}
	return json.Marshal(reps)
}

// decodeReps inverts encodeReps for a cell of n replications.
func decodeReps[R any](data []byte, n int) ([]*R, error) {
	var reps []*R
	if err := json.Unmarshal(data, &reps); err != nil {
		return nil, err
	}
	if len(reps) != n {
		return nil, fmt.Errorf("cached cell holds %d replications, want %d", len(reps), n)
	}
	for i, r := range reps {
		if r == nil {
			return nil, fmt.Errorf("cached replication %d is null", i)
		}
	}
	return reps, nil
}
