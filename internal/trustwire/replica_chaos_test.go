package trustwire

import (
	"net"
	"testing"
	"time"

	"gridtrust/internal/chaos"
	"gridtrust/internal/grid"
	"gridtrust/internal/testutil"
)

// TestPollSurvivesSyncErrors is the regression test for the poll loop
// exiting permanently on the first sync error: replication is
// anti-entropy, so after the peer dies and comes back the loop must
// redial and converge without anyone restarting it.
func TestPollSurvivesSyncErrors(t *testing.T) {
	defer testutil.LeakCheck(t)()

	table := grid.NewTrustTable()
	if err := table.Set(0, 1, grid.ActCompute, grid.LevelC); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rep, err := DialTimeout(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	defer close(stop)
	errs := make(chan error, 1)
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		rep.Poll(5*time.Millisecond, stop, sendErr(errs))
	}()

	// Kill the server and wait for the poll loop to hit an error.
	srv.Close()
	select {
	case <-errs:
	case <-time.After(5 * time.Second):
		t.Fatal("poll loop never reported the dead peer")
	}

	// Revive the server on the same address with a revised table.
	if err := table.Set(0, 1, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.ListenAndServe(addr.String()); err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// The still-running loop must redial and converge.
	deadline := time.Now().Add(5 * time.Second)
	for rep.Version() != table.Replica().Version() {
		select {
		case <-pollDone:
			t.Fatal("poll loop exited on sync error")
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reconverged: at v%d, table v%d", rep.Version(), table.Replica().Version())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tl, ok := rep.Table().Get(0, 1, grid.ActCompute); !ok || tl != grid.LevelA {
		t.Fatalf("replica entry after reconvergence = %v/%v", tl, ok)
	}
}

// TestSyncDeadlineBoundsBlackholedPeer proves a partitioned peer costs
// one timeout-bounded round, not a wedged goroutine, and that the
// replica self-heals once the partition lifts.
func TestSyncDeadlineBoundsBlackholedPeer(t *testing.T) {
	defer testutil.LeakCheck(t)()

	table := grid.NewTrustTable()
	if err := table.Set(1, 2, grid.ActCompute, grid.LevelB); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wire := chaos.NewWire(7)
	srv.ServeListener(wire.Listener(ln))
	defer srv.Close()

	const timeout = 300 * time.Millisecond
	rep, err := DialTimeout(ln.Addr().String(), timeout)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatalf("clean sync: %v", err)
	}

	wire.Partition(true)
	start := time.Now()
	if _, err := rep.Sync(); err == nil {
		t.Fatal("sync through a black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed > 4*timeout {
		t.Fatalf("black-holed sync took %v, deadline %v not honored", elapsed, timeout)
	}

	wire.Partition(false)
	// The broken conn was dropped; the next syncs redial and recover.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rep.Sync(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never recovered after the partition healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tl, ok := rep.Table().Get(1, 2, grid.ActCompute); !ok || tl != grid.LevelB {
		t.Fatalf("replica entry after heal = %v/%v", tl, ok)
	}
}

// TestReplicaConvergesOnPeerRestartedBehind is the case a reconnect must
// not get wrong: the peer comes back with a table whose version is lower
// than the one the replica holds (restarted from an older checkpoint, or
// from nothing).  Polling it with the old version would be answered
// "current" for ever; the poll after a lost connection is a cold one.
func TestReplicaConvergesOnPeerRestartedBehind(t *testing.T) {
	defer testutil.LeakCheck(t)()

	serve := func(table *grid.TrustTable, addr string) (*Server, string) {
		t.Helper()
		srv, err := NewServer(table)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := srv.ListenAndServe(addr)
		if err != nil {
			t.Fatal(err)
		}
		return srv, bound.String()
	}
	// converge polls until the replica holds exactly want's entries.
	converge := func(rep *Replica, want *grid.TrustTable, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, err := rep.Sync()
			got := rep.Table()
			same := err == nil && got.Len() == want.Replica().Len()
			for _, e := range want.Replica().Since(0) {
				if have, ok := got.Get(e.CD, e.RD, e.Activity); !ok || have != e.Level {
					same = false
				}
			}
			if same {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica never converged: %d entries at v%d, peer has %d at v%d (last error %v)",
					what, got.Len(), rep.Version(), want.Replica().Len(), want.Replica().Version(), err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ahead := grid.NewTrustTable()
	for i, tl := range []grid.TrustLevel{grid.LevelA, grid.LevelB, grid.LevelC, grid.LevelD, grid.LevelE} {
		if err := ahead.Set(0, grid.DomainID(i%4), grid.ActCompute, tl); err != nil {
			t.Fatal(err)
		}
	}
	srv, addr := serve(ahead, "127.0.0.1:0")
	rep, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	converge(rep, ahead, "first sync")
	srv.Close()

	behind := grid.NewTrustTable()
	if err := behind.Set(2, 3, grid.ActStorage, grid.LevelB); err != nil {
		t.Fatal(err)
	}
	if behind.Replica().Version() >= ahead.Replica().Version() {
		t.Fatalf("test premise: restarted table v%d is not behind v%d", behind.Replica().Version(), ahead.Replica().Version())
	}
	srv, _ = serve(behind, addr)
	converge(rep, behind, "peer restarted behind")
	srv.Close()

	srv, _ = serve(grid.NewTrustTable(), addr)
	defer srv.Close()
	converge(rep, grid.NewTrustTable(), "peer restarted empty")
}
