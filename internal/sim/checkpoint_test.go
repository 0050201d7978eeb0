package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gridtrust/internal/exp"
	"gridtrust/internal/workload"
)

// openCK opens a checkpoint on dir, failing the test on error.
func openCK(t *testing.T, dir string) *exp.Checkpoint {
	t.Helper()
	ck, err := exp.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// cachedCounter wires an OnCell hook that counts cached cells.
func cachedCounter(opts *GridOptions, cached *int) {
	opts.OnCell = func(p exp.Progress) {
		if p.Cached {
			*cached++
		}
	}
}

// TestCompareGridCheckpointResumeBitIdentical is the contract the sweep CLI
// relies on: a checkpointed grid re-run in a fresh process serves every
// cell from disk and folds to exactly the aggregates of an uncheckpointed
// run — bitwise, not approximately.
func TestCompareGridCheckpointResumeBitIdentical(t *testing.T) {
	cells := gridScenarios()
	opts := GridOptions{Seed: 23, Reps: 4, Workers: 4}
	ref, err := CompareGrid(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ck := openCK(t, dir)
	opts.Checkpoint, opts.CheckpointSalt = ck, "compare"
	warm, err := CompareGrid(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, warm) {
		t.Fatal("checkpointing changed the results of a fresh run")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2 := openCK(t, dir)
	defer ck2.Close()
	opts.Checkpoint = ck2
	cached := 0
	cachedCounter(&opts, &cached)
	resumed, err := CompareGrid(context.Background(), cells, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached != len(cells) {
		t.Fatalf("resume served %d of %d cells from the checkpoint", cached, len(cells))
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatalf("resumed comparisons diverge from the uncheckpointed run:\n ref     %+v\n resumed %+v", ref[0], resumed[0])
	}
}

// TestGridsCheckpointRoundTrip covers the remaining grid types: each must
// restore its own replication type from a shared directory (distinct
// salts) and aggregate identically.  The on-disk format is part of the
// contract: testdata/checkpoint_pr19_machines was written by commit
// 3209f66's `sweep -mode machines -reps 2 -tasks 20 -seed 1 -checkpoint`,
// whose codec was a pair of closures sim handed the engine, and must still
// serve every cell.
func TestGridsCheckpointRoundTrip(t *testing.T) {
	t.Run("written-by-pr19", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"snap-0000000000000006.snap", "wal-0000000000000001.seg"} {
			data, err := os.ReadFile(filepath.Join("testdata/checkpoint_pr19_machines", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// The machines sweep (now configs/sweeps/machines.json) at 20 tasks.
		var cells []CompareCell
		for _, m := range []int{2, 5, 10, 20, 40} {
			sc := PaperScenario("mct", 20, workload.Inconsistent)
			sc.Machines = m
			sc.ArrivalRate = sc.ArrivalRate * float64(m) / 5
			cells = append(cells, CompareCell{Name: fmt.Sprint(m), Scenario: sc})
		}
		opts := GridOptions{Seed: 1, Reps: 2, Workers: 2}
		fresh, err := CompareGrid(context.Background(), cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		ck := openCK(t, dir)
		defer ck.Close()
		opts.Checkpoint, opts.CheckpointSalt = ck, "machines|tasks=20"
		cached := 0
		cachedCounter(&opts, &cached)
		restored, err := CompareGrid(context.Background(), cells, opts)
		if err != nil {
			t.Fatal(err)
		}
		if cached != len(cells) {
			t.Fatalf("the PR 19 directory served %d of %d cells", cached, len(cells))
		}
		if !reflect.DeepEqual(fresh, restored) {
			t.Fatal("comparisons restored from the PR 19 directory diverge from a fresh run")
		}
	})

	dir := t.TempDir()
	opts := GridOptions{Seed: 31, Reps: 3, Workers: 2}

	evCells := []EvolvingCell{{Name: "ev", Config: EvolvingConfig{Requests: 40, UnreliableIncidentProb: 0.3}}}
	stCells := []StagingCell{{Name: "st", Config: StagingConfig{Requests: 30, MaxInputMB: 100}}}
	fsCells := FaultStudyCells([]float64{0.5})

	run := func(ck *exp.Checkpoint, cached *int) (any, any, any) {
		o := opts
		o.Checkpoint = ck
		if cached != nil {
			cachedCounter(&o, cached)
		}
		o.CheckpointSalt = "evolving"
		ev, err := EvolvingGrid(context.Background(), evCells, o)
		if err != nil {
			t.Fatal(err)
		}
		o.CheckpointSalt = "staging"
		st, err := StagingGrid(context.Background(), stCells, o)
		if err != nil {
			t.Fatal(err)
		}
		o.CheckpointSalt = "faultstudy"
		fs, err := FaultStudyGrid(context.Background(), fsCells, o)
		if err != nil {
			t.Fatal(err)
		}
		return ev, st, fs
	}

	refEv, refSt, refFs := run(nil, nil)
	ck := openCK(t, dir)
	run(ck, nil)
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2 := openCK(t, dir)
	defer ck2.Close()
	cached := 0
	gotEv, gotSt, gotFs := run(ck2, &cached)
	if want := len(evCells) + len(stCells) + len(fsCells); cached != want {
		t.Fatalf("resume served %d of %d cells from the checkpoint", cached, want)
	}
	if !reflect.DeepEqual(refEv, gotEv) {
		t.Fatal("evolving grid resume diverged")
	}
	if !reflect.DeepEqual(refSt, gotSt) {
		t.Fatal("staging grid resume diverged")
	}
	if !reflect.DeepEqual(refFs, gotFs) {
		t.Fatal("fault study grid resume diverged")
	}
}

// TestCheckpointMissesOnDifferentTasks guards the salt contract: the same
// cell names with a different workload must not be served from cache.
func TestCheckpointMissesOnDifferentTasks(t *testing.T) {
	mk := func(tasks int) []CompareCell {
		sc := PaperScenario("mct", tasks, workload.Inconsistent)
		return []CompareCell{{Name: "mct", Scenario: sc}}
	}
	dir := t.TempDir()
	ck := openCK(t, dir)
	defer ck.Close()
	opts := GridOptions{Seed: 3, Reps: 2, Workers: 2, Checkpoint: ck, CheckpointSalt: "mode|tasks=20"}
	if _, err := CompareGrid(context.Background(), mk(20), opts); err != nil {
		t.Fatal(err)
	}

	// Same cell name, different tasks → different salt → fresh run, and
	// the result must match an uncheckpointed grid on the new workload.
	opts.CheckpointSalt = "mode|tasks=40"
	cached := 0
	cachedCounter(&opts, &cached)
	got, err := CompareGrid(context.Background(), mk(40), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatal("stale cell served across a salt change")
	}
	ref, err := CompareGrid(context.Background(), mk(40), GridOptions{Seed: 3, Reps: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatal("fresh run under a new salt diverged from an uncheckpointed run")
	}
}
