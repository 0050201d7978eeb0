package rmswire

// resilience_test.go covers the overload-resilience layer: bounded
// admission with typed retryable sheds, budget-bounded waits, the health
// op, graceful drain semantics, and idempotent submits surviving both
// server restart and log compaction.

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

func TestMaxInFlightSheds(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Occupy the only in-flight slot; the next request must be shed with
	// a typed retryable response, not queued and not executed.
	if !srv.acquire(0) {
		t.Fatal("could not occupy the free slot")
	}
	_, err = client.Stats()
	var oe *OverloadedError
	if !errors.As(err, &oe) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated server returned %v, want OverloadedError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("overloaded response carried no retry-after hint: %+v", oe)
	}
	// Shedding must not poison the connection: the same client succeeds
	// once capacity frees up.
	srv.release()
	if _, err := client.Stats(); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestBudgetBoundedAdmission(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A request with budget waits for a slot that frees inside it.
	if !srv.acquire(0) {
		t.Fatal("could not occupy the free slot")
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv.release()
	}()
	client.Budget = 2 * time.Second
	if _, err := client.Stats(); err != nil {
		t.Fatalf("budgeted request shed although a slot freed in time: %v", err)
	}

	// A budget too small to see the slot free is shed at its deadline.
	if !srv.acquire(0) {
		t.Fatal("could not re-occupy the slot")
	}
	defer srv.release()
	client.Budget = 30 * time.Millisecond
	start := time.Now()
	_, err = client.Stats()
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired budget returned %v, want overloaded", err)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond || waited > time.Second {
		t.Fatalf("budget wait lasted %v, want ≈30ms", waited)
	}
}

func TestMaxConnsSheds(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxConns = 1
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.Stats(); err != nil {
		t.Fatal(err)
	}
	// The connection over the limit is told "overloaded" (or dropped,
	// depending on write/close interleaving) — never served.
	second, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.Timeout = 2 * time.Second
	if _, err := second.Stats(); err == nil {
		t.Fatal("connection over MaxConns was served")
	} else if !errors.Is(err, ErrOverloaded) && !isTransportErr(err) {
		t.Fatalf("unexpected rejection error: %v", err)
	}
	// The admitted connection keeps working.
	if _, err := first.Stats(); err != nil {
		t.Fatalf("admitted connection broken by shed: %v", err)
	}
}

// isTransportErr reports whether err looks like a connection-level
// failure rather than an application response.
func isTransportErr(err error) bool {
	var ne net.Error
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.As(err, &ne) || strings.Contains(err.Error(), "reset") ||
		strings.Contains(err.Error(), "broken pipe")
}

func TestHealthOp(t *testing.T) {
	trms, _, plain := newDaemon(t)
	h, err := plain.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining || h.Journal {
		t.Fatalf("health %+v", h)
	}
	if h.Conns < 1 {
		t.Fatalf("health sees %d conns, want ≥1", h.Conns)
	}

	// Health answers even when admission is saturated: it bypasses the
	// in-flight semaphore entirely.
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if !srv.acquire(0) {
		t.Fatal("could not occupy the slot")
	}
	defer srv.release()
	if _, err := client.Stats(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("stats under saturation returned %v, want overloaded", err)
	}
	h, err = client.Health()
	if err != nil {
		t.Fatalf("health shed under load: %v", err)
	}
	if h.InFlight != 1 || h.MaxInFlight != 1 {
		t.Fatalf("health in-flight view %+v", h)
	}
}

func TestHealthReportsJournal(t *testing.T) {
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 0)
	defer stop()
	if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, []float64{10, 12}, 0); err != nil {
		t.Fatal(err)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if !h.Journal || h.JournalNextSeq < 2 || h.JournalSegments < 1 {
		t.Fatalf("journal health %+v", h)
	}
}

// TestHealthAndMetricsAnswerDuringCheckpoint: the probes read the journal
// without the checkpoint lock, so a daemon quiesced for a checkpoint
// still answers them.
func TestHealthAndMetricsAnswerDuringCheckpoint(t *testing.T) {
	srv, _, stop := startJournaled(t, t.TempDir(), 0)
	defer stop()
	srv.jmu.Lock()
	defer srv.jmu.Unlock()
	for _, op := range []string{OpHealth, OpMetrics} {
		done := make(chan Response, 1)
		go func() { done <- srv.respond(Request{Op: op}) }()
		select {
		case resp := <-done:
			if resp.Status != StatusOK {
				t.Fatalf("%s: %+v", op, resp)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s did not answer while the journal lock was held", op)
		}
	}
}

func TestDrainRejectsAndReportsDraining(t *testing.T) {
	_, srv, client := newDaemon(t)
	// One round trip first: a connection still in the accept queue when
	// draining starts is shed at accept time, health or not.
	if _, err := client.Health(); err != nil {
		t.Fatal(err)
	}
	srv.draining.Store(true)
	resp := srv.respond(Request{Op: OpStats})
	if resp.Status != StatusOverloaded || !strings.Contains(resp.Error, "draining") {
		t.Fatalf("draining server answered %+v", resp)
	}
	if resp.RetryAfterMS <= 0 {
		t.Fatalf("draining shed carried no retry hint: %+v", resp)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatalf("health during drain: %v", err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("health during drain %+v", h)
	}
}

func TestShutdownWaitsForInFlight(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// An in-flight request that finishes inside the deadline drains clean.
	if !srv.acquire(0) {
		t.Fatal("acquire")
	}
	done := make(chan bool, 1)
	go func() { done <- srv.Shutdown(2 * time.Second) }()
	time.Sleep(30 * time.Millisecond)
	srv.release()
	if clean := <-done; !clean {
		t.Fatal("drain reported dirty although in-flight work finished in time")
	}
}

func TestShutdownDeadlineExceeded(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	srv.inflight.Add(1) // a request that never finishes
	if clean := srv.Shutdown(50 * time.Millisecond); clean {
		t.Fatal("drain reported clean although a request never finished")
	}
	srv.inflight.Add(-1)
}

func TestDrainOpSignalsOwner(t *testing.T) {
	_, srv, client := newDaemon(t)
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.DrainRequested():
	case <-time.After(2 * time.Second):
		t.Fatal("drain op did not signal the owner")
	}
}

func TestIdempotentSubmitDedup(t *testing.T) {
	trms, _, client := newDaemon(t)
	acts := []grid.Activity{grid.ActCompute}
	eec := []float64{100, 110}
	p1, err := client.SubmitKeyed("key-1", 0, acts, grid.LevelE, eec, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The retry returns the original placement, field for field, and the
	// scheduler places nothing new.
	p2, err := client.SubmitKeyed("key-1", 0, acts, grid.LevelE, eec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if *p2 != *p1 {
		t.Fatalf("dedup hit diverged:\n first %+v\n retry %+v", p1, p2)
	}
	if trms.Placed() != 1 {
		t.Fatalf("placed %d tasks for one key", trms.Placed())
	}
	// A different key is a different task.
	p3, err := client.SubmitKeyed("key-2", 0, acts, grid.LevelE, eec, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID == p1.ID {
		t.Fatalf("distinct keys shared placement id %d", p3.ID)
	}
	if trms.Placed() != 2 {
		t.Fatalf("placed %d, want 2", trms.Placed())
	}
}

func TestIdempotentSubmitPendingKeySheds(t *testing.T) {
	_, srv, client := newDaemon(t)
	if _, c := srv.books.reserveKey("busy"); c != claimed {
		t.Fatalf("a fresh key could not be claimed: %d", c)
	}
	_, err := client.SubmitKeyed("busy", 0, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{1, 2}, 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("concurrent same-key submit returned %v, want overloaded", err)
	}
	srv.books.releaseKey("busy")
	if _, err := client.SubmitKeyed("busy", 0, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{1, 2}, 1); err != nil {
		t.Fatalf("key unusable after pending cleared: %v", err)
	}
}

func TestIdempotencySurvivesRestartAndCompaction(t *testing.T) {
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 0)
	acts := []grid.Activity{grid.ActCompute}
	eec := []float64{10, 12}
	p1, err := client.SubmitKeyed("tail-key", 0, acts, grid.LevelD, eec, 0)
	if err != nil {
		t.Fatal(err)
	}
	stop()

	// Restart #1 replays the key from the record tail.
	_, client2, stop2 := startJournaled(t, dir, 0)
	r1, err := client2.SubmitKeyed("tail-key", 0, acts, grid.LevelD, eec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if *r1 != *p1 {
		t.Fatalf("replayed dedup diverged:\n orig  %+v\n retry %+v", p1, r1)
	}
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != 1 {
		t.Fatalf("restart + retry double-placed: %+v", st)
	}
	// Report the placement and checkpoint: the key must survive
	// compaction via the snapshot's idem table even though its placement
	// is closed and its journal record folded away.
	if err := client2.Report(p1.ID, 6, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := client2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stop2()

	// Restart #2 recovers the key from the snapshot alone.
	_, client3, stop3 := startJournaled(t, dir, 0)
	defer stop3()
	r2, err := client3.SubmitKeyed("tail-key", 0, acts, grid.LevelD, eec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *r2 != *p1 {
		t.Fatalf("post-compaction dedup diverged:\n orig  %+v\n retry %+v", p1, r2)
	}
	st3, err := client3.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st3.Placed != 1 {
		t.Fatalf("compaction forgot the key, double-placed: %+v", st3)
	}
}

func TestIdleReaperManyConcurrentClients(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = 100 * time.Millisecond
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Many clients churn, then all go idle past the timeout: every
	// handler must be reaped without racing the accept loop, the conn
	// registry or the admission counters (run under -race in CI).
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(addr.String())
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < 5; i++ {
				if _, err := client.Stats(); err != nil {
					t.Errorf("live client reaped: %v", err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
			time.Sleep(400 * time.Millisecond)
			if _, err := client.Stats(); err == nil {
				t.Error("idle connection survived past the timeout")
			}
		}()
	}
	wg.Wait()
}

func TestClientFrameTooLargeOnReadPath(t *testing.T) {
	// A rogue server floods an over-limit response line: the client must
	// fail with the typed framing error, not buffer unboundedly, and never
	// touch the desynchronized stream again.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		_, _ = conn.Read(buf) // swallow the request frame
		junk := make([]byte, MaxFrameBytes+2)
		for i := range junk {
			junk[i] = 'z'
		}
		junk = append(junk, '\n')
		_, _ = conn.Write(junk)
	}()

	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Stats()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized response returned %v, want ErrFrameTooLarge", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Delivery != frame.MaybeSent {
		t.Fatalf("desynchronizing read reported as %v, want maybe sent", err)
	}
	// The next op dials rather than reading on; with the listener gone
	// that dial is what fails, before anything is written.
	ln.Close()
	if _, err := client.Stats(); !errors.As(err, &oe) || oe.Delivery != frame.NotSent {
		t.Fatalf("op after the poisoned connection returned %v, want a failed dial (not sent)", err)
	}
}

func TestClientBrokenFailsFast(t *testing.T) {
	_, srv, client := newDaemon(t)
	if _, err := client.Stats(); err != nil {
		t.Fatal(err)
	}
	// Kill the transport under the client: the in-flight op fails as
	// maybe sent, and the broken connection costs the next op a dial,
	// not a second failure.
	severConns(srv)
	_, err := client.Stats()
	var oe *OpError
	if !errors.As(err, &oe) || oe.Delivery != frame.MaybeSent {
		t.Fatalf("op over a dead connection returned %v, want maybe sent", err)
	}
	start := time.Now()
	if _, err := client.Stats(); err != nil {
		t.Fatalf("op after the broken connection: %v", err)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("client did not recover fast")
	}
}

func TestDialTimeoutBounded(t *testing.T) {
	// The address is a blackhole or unreachable either way; Dial must
	// come back quickly instead of hanging (the pre-resilience client
	// hung indefinitely on a dead address).
	start := time.Now()
	_, err := DialTimeout("10.255.255.1:9", 150*time.Millisecond)
	if err == nil {
		t.Skip("blackhole address unexpectedly connected")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial took %v, want bounded by the timeout", elapsed)
	}
}

func TestClientOpTimeout(t *testing.T) {
	// A server that accepts but never answers: the per-op timeout must
	// bound the round trip.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // read forever, answer never
	}()
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Timeout = 100 * time.Millisecond
	start := time.Now()
	_, err = client.Stats()
	if err == nil {
		t.Fatal("op against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("op took %v despite 100ms timeout", elapsed)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Delivery != frame.MaybeSent {
		t.Fatalf("timed-out op reported as %v, want maybe sent", err)
	}
}

// slowWriteListener hands out connections whose every write waits first,
// so a reply is still being written when an owner reacts to a signal
// raised before it.
type slowWriteListener struct{ net.Listener }

func (l slowWriteListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return slowWriteConn{c}, nil
}

type slowWriteConn struct{ net.Conn }

func (c slowWriteConn) Write(p []byte) (int, error) {
	time.Sleep(50 * time.Millisecond)
	return c.Conn.Write(p)
}

// TestDrainReplyOutlivesOwnerShutdown: the owner shuts the server down the
// moment DrainRequested fires, as gridtrustd does.  Drain holds no
// in-flight slot, so Shutdown closes at once; the client still gets its
// ok, because the signal fires only after the reply is written.
func TestDrainReplyOutlivesOwnerShutdown(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.ServeListener(slowWriteListener{ln})
	t.Cleanup(srv.Close)
	go func() {
		<-srv.DrainRequested()
		srv.Shutdown(time.Second)
	}()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Drain(); err != nil {
		t.Fatalf("drain reply lost to the owner's shutdown: %v", err)
	}
}
