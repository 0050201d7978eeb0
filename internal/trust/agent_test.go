package trust

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestAgentProcessesTransactions(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	var updates []float64
	a, err := NewAgent(e)
	if err != nil {
		t.Fatal(err)
	}
	x, y, c := e.Entity("cd0"), e.Entity("rd1"), e.Context("compute")
	for _, tx := range [][2]float64{{5, 1}, {3, 2}} {
		if err := a.Apply(x, y, c, tx[0], tx[1], func(score float64) { updates = append(updates, score) }); err != nil {
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
	a, err := NewAgent(e)
	if err != nil {
		t.Fatal(err)
	}
	x, y, c := e.Entity("x"), e.Entity("y"), e.Context("c")
	for i := 0; i < 3; i++ {
		if err := a.Apply(x, y, c, 6, float64(i), func(float64) { fired++ }); err != nil {
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
	a, err := NewAgent(e)
	if err != nil {
		t.Fatal(err)
	}
	x, y, c := e.Entity("x"), e.Entity("y"), e.Context("c")
	if err := a.Apply(x, y, c, 99, 0, nil); err == nil {
		t.Fatal("applied an off-scale outcome")
	}
	if err := a.Apply(x, Ent{}, c, 4, 1, nil); !errors.Is(err, ErrHandle) {
		t.Fatalf("applied to the zero handle: %v", err)
	}
	if err := a.Apply(x, y, c, 4, 1, nil); err != nil {
		t.Fatal(err)
	}
	processed, _, rejected := a.Stats()
	if processed != 3 || rejected != 2 {
		t.Fatalf("processed/rejected = %d/%d, want 3/2", processed, rejected)
	}
}

// TestAgentCountsAfterUpdateHook: Apply holds the agent's lock through the
// update hook, so Stats, which takes the same lock, cannot observe a
// transaction whose hook is still running.
func TestAgentCountsAfterUpdateHook(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, Smoothing: 1, InitialScore: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	a, err := NewAgent(e)
	if err != nil {
		t.Fatal(err)
	}
	hook := func(float64) {
		close(entered)
		<-release
	}
	x, y, c := e.Entity("x"), e.Entity("y"), e.Context("c")
	applied := make(chan error)
	go func() { applied <- a.Apply(x, y, c, 5, 1, hook) }()
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
	if _, err := NewAgent(nil); err == nil {
		t.Fatal("accepted nil engine")
	}
	if _, err := NewAgent(newTestEngine(t, defaultCfg())); err != nil {
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
		a, err := NewAgent(e)
		if err != nil {
			t.Fatal(err)
		}
		x, y, c := e.Entity(EntityID(rune('a'+i))), e.Entity("target"), e.Context("c")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < txPerAgent; k++ {
				if err := a.Apply(x, y, c, 4, float64(k), nil); err != nil {
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
