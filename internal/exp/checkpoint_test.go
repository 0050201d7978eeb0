package exp

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"gridtrust/internal/rng"
)

// ckResult is the replication output type the checkpoint tests persist.
type ckResult struct {
	Cell string  `json:"cell"`
	Rep  int     `json:"rep"`
	Draw float64 `json:"draw"`
}

// ckCells builds n cells whose runs record themselves on executed and
// return a deterministic draw from the replication stream.
func ckCells(n int, executed *atomic.Int64) []Cell[ckResult] {
	cells := make([]Cell[ckResult], n)
	for i := range cells {
		name := fmt.Sprintf("cell-%d", i)
		cells[i] = Cell[ckResult]{Name: name, Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*ckResult, error) {
			executed.Add(1)
			return &ckResult{Cell: name, Rep: rep, Draw: src.Float64()}, nil
		}}
	}
	return cells
}

func ckOptions(ck *Checkpoint, seed uint64) Options {
	return Options{
		Seed: seed, Reps: 3, Workers: 2,
		Checkpoint: ck, CheckpointSalt: "test",
	}
}

func TestCheckpointResumeSkipsEveryCachedCell(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	cells := ckCells(4, &executed)

	first, err := Run(context.Background(), cells, ckOptions(ck, 11))
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 12 {
		t.Fatalf("first run executed %d replications, want 12", got)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process resumes from disk: zero replications execute, every
	// progress event is marked cached, and the results are identical.
	ck2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 4 {
		t.Fatalf("reopened checkpoint holds %d cells, want 4", ck2.Len())
	}
	executed.Store(0)
	var events []Progress
	opts := ckOptions(ck2, 11)
	opts.OnCell = func(p Progress) { events = append(events, p) }
	second, err := Run(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("resumed run executed %d replications, want 0", got)
	}
	if len(events) != 4 {
		t.Fatalf("resumed run fired %d progress events, want 4", len(events))
	}
	for _, p := range events {
		if !p.Cached || p.Cells != 4 || p.Err != nil {
			t.Fatalf("bad cached progress event: %+v", p)
		}
	}
	for i := range first {
		if !reflect.DeepEqual(first[i].Reps, second[i].Reps) {
			t.Fatalf("cell %d: cached reps diverge\n first  %v\n second %v", i, first[i].Reps, second[i].Reps)
		}
	}
}

func TestCheckpointPartialResumeRunsOnlyMisses(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var executed atomic.Int64
	cells := ckCells(5, &executed)

	// Complete only the first two cells, as an interrupted sweep would.
	if _, err := Run(context.Background(), cells[:2], ckOptions(ck, 7)); err != nil {
		t.Fatal(err)
	}
	executed.Store(0)
	if _, err := Run(context.Background(), cells, ckOptions(ck, 7)); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 9 {
		t.Fatalf("resume executed %d replications, want 9 (3 missed cells)", got)
	}
}

func TestCheckpointKeyCoversSeedSaltAndReps(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	var executed atomic.Int64
	cells := ckCells(2, &executed)
	if _, err := Run(context.Background(), cells, ckOptions(ck, 7)); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Options){
		"seed": func(o *Options) { o.Seed = 8 },
		"salt": func(o *Options) { o.CheckpointSalt = "other" },
		"reps": func(o *Options) { o.Reps = 4 },
	} {
		executed.Store(0)
		opts := ckOptions(ck, 7)
		mutate(&opts)
		if _, err := Run(context.Background(), cells, opts); err != nil {
			t.Fatal(err)
		}
		if executed.Load() == 0 {
			t.Fatalf("changed %s but the checkpoint still served cached cells", name)
		}
	}
}

func TestCheckpointCompactBoundsDirectory(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	if _, err := Run(context.Background(), ckCells(6, &executed), ckOptions(ck, 3)); err != nil {
		t.Fatal(err)
	}
	if err := ck.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		t.Fatalf("compacted checkpoint left %d snapshots, want 1", len(snaps))
	}

	// The snapshot alone must serve every cell.
	ck2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 6 {
		t.Fatalf("recovered %d cells from snapshot, want 6", ck2.Len())
	}
	executed.Store(0)
	if _, err := Run(context.Background(), ckCells(6, &executed), ckOptions(ck2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 0 {
		t.Fatalf("post-compaction resume executed %d replications, want 0", got)
	}
}

func TestCheckpointDoesNotStoreFailedCells(t *testing.T) {
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	cells := []Cell[ckResult]{{Name: "boom", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*ckResult, error) {
		if rep == 1 {
			return nil, fmt.Errorf("transient")
		}
		return &ckResult{Cell: "boom", Rep: rep}, nil
	}}}
	if _, err := Run(context.Background(), cells, ckOptions(ck, 5)); err == nil {
		t.Fatal("failing cell reported no error")
	}
	if ck.Len() != 0 {
		t.Fatalf("failed cell was checkpointed (%d cached)", ck.Len())
	}
}

// TestCheckpointRequiresCodecs keeps the id of the test that demanded
// Options.EncodeReps/DecodeReps.  The codec is now derived from the
// replication type, and what is left of the contract is its failure mode: a
// type JSON cannot encode costs the run its durability, which is reported in
// the joined run error, while the cell's results stay intact.
func TestCheckpointRequiresCodecs(t *testing.T) {
	ck, err := OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	type opaque struct{ Done chan struct{} }
	cells := []Cell[opaque]{{Name: "opaque", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*opaque, error) {
		return &opaque{}, nil
	}}}
	res, err := Run(context.Background(), cells, ckOptions(ck, 1))
	if err == nil || !strings.Contains(err.Error(), `checkpoint encode cell "opaque"`) {
		t.Fatalf("unencodable replication type: run error %v", err)
	}
	if res[0].Err != nil {
		t.Fatalf("checkpoint failure poisoned the cell: %v", res[0].Err)
	}
	for rep, r := range res[0].Reps {
		if r == nil {
			t.Fatalf("replication %d lost its result", rep)
		}
	}
	if ck.Len() != 0 {
		t.Fatalf("unencodable cell was checkpointed (%d cached)", ck.Len())
	}
}

func TestCheckpointInterruptedRunResumesToIdenticalResults(t *testing.T) {
	// Reference: the grid with no checkpoint and no interruption.
	var executed atomic.Int64
	cells := ckCells(6, &executed)
	refOpts := Options{Seed: 9, Reps: 3, Workers: 2}
	ref, err := Run(context.Background(), cells, refOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after the second cell completes, like a
	// SIGINT landing mid-sweep.  Fully dispatched cells still drain and
	// are journalled.
	dir := t.TempDir()
	ck, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := ckOptions(ck, 9)
	opts.Workers = 1
	opts.OnCell = func(p Progress) {
		if p.Done == 2 {
			cancel()
		}
	}
	if _, err := Run(ctx, cells, opts); err == nil {
		t.Fatal("interrupted run reported no error")
	}
	stored := ck.Len()
	if stored == 0 || stored == len(cells) {
		t.Fatalf("interruption stored %d of %d cells; the test needs a partial checkpoint", stored, len(cells))
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a fresh process: cached cells are served, the rest run,
	// and the folded results match the uninterrupted reference exactly.
	ck2, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	executed.Store(0)
	resumed, err := Run(context.Background(), cells, ckOptions(ck2, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := executed.Load(), int64(3*(len(cells)-stored)); got != want {
		t.Fatalf("resume executed %d replications, want %d", got, want)
	}
	for i := range ref {
		if !reflect.DeepEqual(ref[i].Reps, resumed[i].Reps) {
			t.Fatalf("cell %d: resumed reps diverge from uninterrupted run", i)
		}
	}
}
