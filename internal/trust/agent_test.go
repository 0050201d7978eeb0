package trust

import (
	"sync"
	"testing"
)

func TestAgentProcessesTransactions(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	in := make(chan Transaction)
	var mu sync.Mutex
	var updates []float64
	a, err := NewAgent("rd-agent", e, in, func(x, y EntityID, c Context, score float64) {
		mu.Lock()
		updates = append(updates, score)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()

	in <- Transaction{From: "cd0", To: "rd1", Ctx: "compute", Outcome: 5, Now: 1}
	in <- Transaction{From: "cd0", To: "rd1", Ctx: "compute", Outcome: 3, Now: 2}
	close(in)
	<-done

	processed, committed, rejected := a.Stats()
	if processed != 2 || committed != 2 || rejected != 0 {
		t.Fatalf("stats = %d/%d/%d, want 2/2/0", processed, committed, rejected)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(updates) != 2 {
		t.Fatalf("update hook fired %d times, want 2", len(updates))
	}
	if updates[0] != 5 || updates[1] != 3 {
		t.Fatalf("updates = %v, want [5 3] with smoothing=1", updates)
	}
}

func TestAgentBatchingSuppressesUpdates(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, UpdateBatch: 3, Smoothing: 1, InitialScore: 1})
	in := make(chan Transaction, 3)
	fired := 0
	a, err := NewAgent("a", e, in, func(EntityID, EntityID, Context, float64) { fired++ })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		in <- Transaction{From: "x", To: "y", Ctx: "c", Outcome: 6, Now: float64(i)}
	}
	close(in)
	a.Run() // synchronous: channel pre-filled and closed
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
	in := make(chan Transaction, 2)
	a, err := NewAgent("a", e, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	in <- Transaction{From: "x", To: "y", Ctx: "c", Outcome: 99, Now: 0} // off scale
	in <- Transaction{From: "x", To: "y", Ctx: "c", Outcome: 4, Now: 1}
	close(in)
	a.Run()
	processed, _, rejected := a.Stats()
	if processed != 2 || rejected != 1 {
		t.Fatalf("processed/rejected = %d/%d, want 2/1", processed, rejected)
	}
	if len(a.Errors()) != 1 {
		t.Fatalf("errors = %v", a.Errors())
	}
}

// TestAgentCountsAfterUpdateHook pins the order core.TRMS.Drain relies on:
// a transaction is not counted as processed while its update hook is
// still running, so "processed == reported" implies the hook's table
// write has happened.
func TestAgentCountsAfterUpdateHook(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	in := make(chan Transaction, 1)
	entered := make(chan struct{})
	release := make(chan struct{})
	a, err := NewAgent("a", e, in, func(EntityID, EntityID, Context, float64) {
		close(entered)
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { a.Run(); close(done) }()
	in <- Transaction{From: "x", To: "y", Ctx: "c", Outcome: 5, Now: 1}
	close(in)

	<-entered
	if processed, committed, _ := a.Stats(); processed != 0 || committed != 0 {
		t.Errorf("stats advanced to %d/%d while the update hook was still running", processed, committed)
	}
	close(release)
	<-done
	if processed, committed, rejected := a.Stats(); processed != 1 || committed != 1 || rejected != 0 {
		t.Fatalf("stats = %d/%d/%d after the hook returned, want 1/1/0", processed, committed, rejected)
	}
}

func TestAgentConstructorValidation(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	if _, err := NewAgent("a", nil, make(chan Transaction), nil); err == nil {
		t.Fatal("accepted nil engine")
	}
	if _, err := NewAgent("a", e, nil, nil); err == nil {
		t.Fatal("accepted nil channel")
	}
}

func TestMultipleAgentsSharedEngine(t *testing.T) {
	// Figure 1: several CD/RD agents feed one engine concurrently.
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 0.5, InitialScore: 1})
	const agents, txPerAgent = 4, 100
	chans := make([]chan Transaction, agents)
	var wg sync.WaitGroup
	for i := range chans {
		chans[i] = make(chan Transaction, txPerAgent)
		a, err := NewAgent("agent", e, chans[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); a.Run() }()
	}
	for i, ch := range chans {
		for k := 0; k < txPerAgent; k++ {
			ch <- Transaction{
				From: EntityID(rune('a' + i)), To: "target", Ctx: "c",
				Outcome: 4, Now: float64(k),
			}
		}
		close(ch)
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
