package trust

import (
	"sync"
	"testing"
	"time"
)

func TestAgentProcessesTransactions(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	var updates []float64
	a, err := NewAgent(e, func(x, y EntityID, c Context, score float64) {
		updates = append(updates, score)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range []Transaction{
		{From: "cd0", To: "rd1", Ctx: "compute", Outcome: 5, Now: 1},
		{From: "cd0", To: "rd1", Ctx: "compute", Outcome: 3, Now: 2},
	} {
		if err := a.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	processed, committed, rejected := a.Stats()
	if processed != 2 || committed != 2 || rejected != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/2/0", processed, committed, rejected)
	}
	if len(updates) != 2 || updates[0] != 5 || updates[1] != 3 {
		t.Fatalf("updates = %v, want [5 3] with smoothing=1", updates)
	}
}

func TestAgentBatchingSuppressesUpdates(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, UpdateBatch: 3, Smoothing: 1, InitialScore: 1})
	fired := 0
	a, err := NewAgent(e, func(EntityID, EntityID, Context, float64) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := a.Apply(Transaction{From: "x", To: "y", Ctx: "c", Outcome: 6, Now: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Fatalf("update hook fired %d times, want 1 (batch of 3)", fired)
	}
	_, committed, _ := a.Stats()
	if committed != 1 {
		t.Fatalf("committed = %d, want 1", committed)
	}
}

func TestAgentRecordsBadTransactions(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	a, err := NewAgent(e, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Apply(Transaction{From: "x", To: "y", Ctx: "c", Outcome: 99, Now: 0}); err == nil {
		t.Fatal("applied an off-scale outcome")
	}
	if err := a.Apply(Transaction{From: "x", To: "y", Ctx: "c", Outcome: 4, Now: 1}); err != nil {
		t.Fatal(err)
	}
	processed, _, rejected := a.Stats()
	if processed != 2 || rejected != 1 {
		t.Fatalf("processed/rejected = %d/%d, want 2/1", processed, rejected)
	}
}

// TestAgentCountsAfterUpdateHook: Apply holds the agent's lock through the
// update hook, so Stats, which takes the same lock, cannot observe a
// transaction whose hook is still running.
func TestAgentCountsAfterUpdateHook(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	a, err := NewAgent(e, func(EntityID, EntityID, Context, float64) {
		close(entered)
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	applied := make(chan error)
	go func() { applied <- a.Apply(Transaction{From: "x", To: "y", Ctx: "c", Outcome: 5, Now: 1}) }()
	<-entered
	stats := make(chan [3]int)
	go func() {
		p, c, r := a.Stats()
		stats <- [3]int{p, c, r}
	}()
	select {
	case got := <-stats:
		t.Fatalf("Stats returned %v while the update hook was running", got)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	if got := <-stats; got != [3]int{1, 1, 0} {
		t.Fatalf("stats = %v read across the update hook, want [1 1 0]", got)
	}
}

func TestAgentConstructorValidation(t *testing.T) {
	if _, err := NewAgent(nil, nil); err == nil {
		t.Fatal("accepted nil engine")
	}
	if _, err := NewAgent(newTestEngine(t, defaultCfg()), nil); err != nil {
		t.Fatal(err)
	}
}

// TestMultipleAgentsSharedEngine: Figure 1 draws one agent per domain,
// all feeding one engine.  Agents applying concurrently (run it under
// -race) each see their own relationship converge.
func TestMultipleAgentsSharedEngine(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 0.5, InitialScore: 1})
	const agents, txPerAgent = 4, 100
	var wg sync.WaitGroup
	for i := 0; i < agents; i++ {
		a, err := NewAgent(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < txPerAgent; k++ {
				if err := a.Apply(Transaction{
					From: EntityID(rune('a' + i)), To: "target", Ctx: "c",
					Outcome: 4, Now: float64(k),
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// Every agent's relationship should have converged toward 4.
	for i := 0; i < agents; i++ {
		g, err := e.Direct(EntityID(rune('a'+i)), "target", "c", float64(txPerAgent))
		if err != nil {
			t.Fatal(err)
		}
		if g < 3.9 || g > 4.1 {
			t.Fatalf("agent %d trust = %g, want ~4", i, g)
		}
	}
}
