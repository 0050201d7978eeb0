package rmswire

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/grid"
)

func TestRetrierBackoffDeterministic(t *testing.T) {
	mk := func(seed uint64) *Retrier {
		return NewRetrier(RetrierConfig{Addr: "unused", Seed: seed,
			BaseBackoff: 10 * time.Millisecond, MaxBackoff: 500 * time.Millisecond})
	}
	a, b := mk(42), mk(42)
	for i := 0; i < 10; i++ {
		da, db := a.backoff(i, 0), b.backoff(i, 0)
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
		// Capped exponential with half-jitter: d/2 ≤ sleep ≤ d.
		want := 10 * time.Millisecond << uint(i)
		if want > 500*time.Millisecond {
			want = 500 * time.Millisecond
		}
		if da < want/2 || da > want {
			t.Fatalf("attempt %d: backoff %v outside [%v,%v]", i, da, want/2, want)
		}
	}
	if ka, kb := mk(7).NewKey(), mk(7).NewKey(); ka != kb {
		t.Fatalf("same seed produced different keys: %s vs %s", ka, kb)
	}
	if ka, kc := mk(7).NewKey(), mk(8).NewKey(); ka == kc {
		t.Fatalf("different seeds produced the same key %s", ka)
	}
}

func TestRetrierHonorsRetryAfterHint(t *testing.T) {
	r := NewRetrier(RetrierConfig{Addr: "unused", Seed: 1,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond})
	if d := r.backoff(0, 80*time.Millisecond); d < 40*time.Millisecond {
		t.Fatalf("backoff %v ignored the 80ms server hint", d)
	}
}

func TestRetrierRetriesOverloadThenSucceeds(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	srv.RetryAfter = 5 * time.Millisecond
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if !srv.acquire(0) {
		t.Fatal("acquire")
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		srv.release()
	}()
	r := NewRetrier(RetrierConfig{Addr: addr.String(), Seed: 3,
		BaseBackoff: 5 * time.Millisecond, MaxAttempts: 20})
	defer r.Close()
	if _, err := r.Stats(); err != nil {
		t.Fatalf("retrier gave up although the server recovered: %v", err)
	}
}

func TestRetrierReconnectsAfterBrokenConnection(t *testing.T) {
	_, srv, _ := newDaemon(t)
	r := NewRetrier(RetrierConfig{Addr: srv.ln.Addr().String(), Seed: 9,
		BaseBackoff: time.Millisecond})
	defer r.Close()
	if _, err := r.Stats(); err != nil {
		t.Fatal(err)
	}
	// Sever the connection behind the retrier's back: the next op must
	// fail over to a fresh dial transparently.
	severConns(srv)
	if _, err := r.Stats(); err != nil {
		t.Fatalf("retrier did not recover from a broken connection: %v", err)
	}
}

func TestRetrierSubmitSameKeyNeverDoublePlaces(t *testing.T) {
	trms, srv, _ := newDaemon(t)
	r := NewRetrier(RetrierConfig{Addr: srv.ln.Addr().String(), Seed: 11,
		BaseBackoff: time.Millisecond})
	defer r.Close()
	acts := []grid.Activity{grid.ActCompute}
	eec := []float64{100, 110}
	p1, err := r.SubmitKeyed("storm-key", 0, acts, grid.LevelE, eec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a lost acknowledgement: the connection dies after the
	// submit was applied, and the caller retries the same key.
	severConns(srv)
	p2, err := r.SubmitKeyed("storm-key", 0, acts, grid.LevelE, eec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID != p1.ID {
		t.Fatalf("retried key re-placed: ids %d and %d", p1.ID, p2.ID)
	}
	if trms.Placed() != 1 {
		t.Fatalf("placed %d for one key", trms.Placed())
	}
}

func TestRetrierDoesNotRetryApplicationErrors(t *testing.T) {
	_, srv, _ := newDaemon(t)
	r := NewRetrier(RetrierConfig{Addr: srv.ln.Addr().String(), Seed: 13,
		BaseBackoff: 500 * time.Millisecond, MaxAttempts: 10})
	defer r.Close()
	start := time.Now()
	_, err := r.SubmitKeyed("bad", 99, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{1, 2}, 0)
	if err == nil {
		t.Fatal("unknown client accepted")
	}
	if strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("application error was retried to exhaustion: %v", err)
	}
	// No backoff sleeps: the first attempt's answer was final.
	if time.Since(start) > 400*time.Millisecond {
		t.Fatal("application error burned retry backoff")
	}
}

func TestRetrierExhaustsAgainstDeadServer(t *testing.T) {
	r := NewRetrier(RetrierConfig{Addr: "127.0.0.1:1", Seed: 17,
		MaxAttempts: 3, BaseBackoff: time.Millisecond, DialTimeout: 200 * time.Millisecond})
	_, err := r.Stats()
	if err == nil {
		t.Fatal("stats against a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Fatalf("unexpected terminal error: %v", err)
	}
}

func TestRetrierConcurrentSubmits(t *testing.T) {
	trms, srv, _ := newDaemon(t)
	r := NewRetrier(RetrierConfig{Addr: srv.ln.Addr().String(), Seed: 19,
		BaseBackoff: time.Millisecond})
	defer r.Close()
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelC, []float64{5, 7}, float64(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if trms.Placed() != n {
		t.Fatalf("placed %d of %d distinct-key submits", trms.Placed(), n)
	}
}

func TestRetrierSubmitRequiresKey(t *testing.T) {
	r := NewRetrier(RetrierConfig{Addr: "unused", Seed: 23})
	if _, err := r.SubmitKeyed("", 0, []grid.Activity{grid.ActCompute}, grid.LevelC, []float64{1, 2}, 0); err == nil {
		t.Fatal("empty idempotency key accepted")
	}
}

func TestOverloadedErrorTyping(t *testing.T) {
	var err error = &OverloadedError{Reason: "x", RetryAfter: time.Second}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("errors.Is(ErrOverloaded) failed")
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != time.Second {
		t.Fatal("errors.As failed")
	}
	if !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("error text %q", err)
	}
}
