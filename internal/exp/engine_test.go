package exp

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridtrust/internal/rng"
)

// sumCell draws n variates from the replication stream and sums them —
// enough arithmetic that any seeding or ordering mistake shows up as a
// bit-level difference in the fold.
func sumCell(name string, n int) Cell[float64] {
	return Cell[float64]{Name: name, Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*float64, error) {
		s := 0.0
		for i := 0; i < n; i++ {
			s += src.Float64()
		}
		return &s, nil
	}}
}

// fold reduces one cell's replication outputs in replication order.
func fold(t *testing.T, res CellResult[float64]) float64 {
	t.Helper()
	s := 0.0
	for rep, f := range res.Reps {
		if f == nil {
			t.Fatalf("cell %s rep %d: missing result", res.Name, rep)
		}
		// A non-commutative mix so replication order matters.
		s = s/2 + *f
	}
	return s
}

func TestRunDeterministicAcrossWorkersAndCellOrder(t *testing.T) {
	cells := []Cell[float64]{sumCell("a", 10), sumCell("b", 100), sumCell("c", 3)}
	reversed := []Cell[float64]{cells[2], cells[1], cells[0]}

	byName := func(cs []Cell[float64], workers int) map[string]float64 {
		res, err := Run(context.Background(), cs, Options{Seed: 99, Reps: 7, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, r := range res {
			out[r.Name] = fold(t, r)
		}
		return out
	}

	base := byName(cells, 1)
	for _, workers := range []int{2, 8} {
		got := byName(cells, workers)
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d cell %s: %v != %v (1 worker)", workers, name, got[name], want)
			}
		}
	}
	rev := byName(reversed, 4)
	for name, want := range base {
		if rev[name] != want {
			t.Errorf("reordered cells: cell %s: %v != %v", name, rev[name], want)
		}
	}
}

func TestRunMatchesStandaloneStreams(t *testing.T) {
	// Replication r must see exactly stream r of the master seed, the
	// contract the sim package's Compare equivalence rests on.
	res, err := Run(context.Background(), []Cell[uint64]{
		{Name: "probe", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*uint64, error) {
			v := src.Uint64()
			return &v, nil
		}},
	}, Options{Seed: 4, Reps: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	streams := rng.Streams(4, 5)
	for rep, v := range res[0].Reps {
		if want := streams[rep].Uint64(); *v != want {
			t.Errorf("rep %d: got %d, want stream value %d", rep, *v, want)
		}
	}
}

func TestRunCancellationDrainsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	cells := []Cell[int]{{Name: "slow", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*int, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	}}}

	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, cells, Options{Seed: 1, Reps: 64, Workers: 4})
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled grid did not drain promptly")
	}
}

func TestRunRecoversPanicsWithCellTag(t *testing.T) {
	cells := []Cell[float64]{
		sumCell("healthy", 5),
		{Name: "exploding", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*float64, error) {
			if rep == 1 {
				panic("boom")
			}
			return new(float64), nil
		}},
	}
	res, err := Run(context.Background(), cells, Options{Seed: 2, Reps: 3, Workers: 2})
	if err == nil {
		t.Fatal("panicking cell produced no error")
	}
	for _, frag := range []string{`"exploding"`, "replication 1", "boom"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q missing %q", err, frag)
		}
	}
	if res[1].Err == nil {
		t.Error("cell result not tagged with the error")
	}
	// The healthy cell still completed in full.
	if res[0].Err != nil {
		t.Errorf("healthy cell errored: %v", res[0].Err)
	}
	fold(t, res[0])
}

func TestRunErrorsAreReplicationOrdered(t *testing.T) {
	// The reported cell error is the lowest-replication failure, not
	// whichever worker lost the race.
	cells := []Cell[int]{{Name: "flaky", Run: func(ctx context.Context, rep int, src *rng.Source, scratch any) (*int, error) {
		if rep >= 2 {
			return nil, errors.New("late failure")
		}
		return &rep, nil
	}}}
	res, err := Run(context.Background(), cells, Options{Seed: 3, Reps: 8, Workers: 8})
	if err == nil || !strings.Contains(err.Error(), "replication 2") {
		t.Fatalf("got %v, want the replication-2 failure", err)
	}
	if res[0].Err == nil {
		t.Fatal("cell error missing")
	}
}

func TestRunScratchIsPerWorker(t *testing.T) {
	var made atomic.Int64
	type scratch struct{ uses int }
	cells := []Cell[int]{{Name: "s", Run: func(ctx context.Context, rep int, src *rng.Source, sc any) (*int, error) {
		s, ok := sc.(*scratch)
		if !ok {
			return nil, errors.New("scratch missing or mistyped")
		}
		s.uses++
		return nil, nil
	}}}
	_, err := Run(context.Background(), cells, Options{
		Seed: 1, Reps: 32, Workers: 4,
		NewScratch: func() any { made.Add(1); return &scratch{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := made.Load(); n < 1 || n > 4 {
		t.Errorf("made %d scratches, want between 1 and the worker count", n)
	}
}

func TestRunProgressHook(t *testing.T) {
	var events []Progress
	cells := []Cell[float64]{sumCell("a", 2), sumCell("b", 2)}
	_, err := Run(context.Background(), cells, Options{
		Seed: 5, Reps: 4, Workers: 3,
		OnCell: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d progress events, want 2", len(events))
	}
	seen := map[string]bool{}
	for _, p := range events {
		seen[p.Cell] = true
		if p.Reps != 4 || p.Cells != 2 || p.Err != nil {
			t.Errorf("bad progress event %+v", p)
		}
	}
	if !seen["a"] || !seen["b"] {
		t.Errorf("progress missing cells: %v", seen)
	}
	if events[len(events)-1].Done != 2 {
		t.Errorf("final Done = %d, want 2", events[len(events)-1].Done)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), []Cell[float64]{{Name: "x"}}, Options{Reps: 1}); err == nil {
		t.Error("nil run function accepted")
	}
	if _, err := Run(context.Background(), []Cell[float64]{sumCell("x", 1)}, Options{}); err == nil {
		t.Error("missing replication count accepted")
	}
	if res, err := Run[float64](context.Background(), nil, Options{}); err != nil || res != nil {
		t.Errorf("empty grid: got (%v, %v), want (nil, nil)", res, err)
	}
}

func TestCellRepsOverride(t *testing.T) {
	cells := []Cell[float64]{sumCell("default", 3), {Name: "more", Reps: 9, Run: sumCell("", 1).Run}}
	res, err := Run(context.Background(), cells, Options{Seed: 1, Reps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Reps) != 3 || len(res[1].Reps) != 9 {
		t.Errorf("rep counts %d/%d, want 3/9", len(res[0].Reps), len(res[1].Reps))
	}
}
