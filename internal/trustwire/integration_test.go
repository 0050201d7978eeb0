package trustwire_test

import (
	"sync"
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/trustwire"
)

// TestReplicatedTableEndToEnd replicates a table end to end: a central
// authoritative table served over TCP, two remote replicas cold-syncing,
// a central revision, and poll-loop convergence.
// It is the integration contract the fleet's trust gossip builds on.
func TestReplicatedTableEndToEnd(t *testing.T) {
	table := grid.NewTrustTable()
	seed := map[grid.Activity]grid.TrustLevel{
		grid.ActCompute: grid.LevelC,
		grid.ActStorage: grid.LevelD,
	}
	for act, tl := range seed {
		if err := table.Set(0, 1, act, tl); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := trustwire.NewServer(table, 4, 4, grid.NumBuiltinActivities)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Two remote domains dial in and cold-sync a full snapshot.
	replicas := make([]*trustwire.Replica, 2)
	for i := range replicas {
		rep, err := trustwire.Dial(addr.String())
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		if _, err := rep.Sync(); err != nil {
			t.Fatalf("replica %d cold sync: %v", i, err)
		}
		replicas[i] = rep
		if tl, ok := rep.Table().Get(0, 1, grid.ActCompute); !ok || tl != grid.LevelC {
			t.Fatalf("replica %d cold-synced (0,1,compute) = %v/%v, want LevelC", i, tl, ok)
		}
		if rep.Version() != table.Version() {
			t.Fatalf("replica %d at version %d, table at %d", i, rep.Version(), table.Version())
		}
	}

	// A remote scheduler computes an OTL from its replica without any
	// network traffic: min over the ToA = min(C, D) = C.
	toa := grid.MustToA(grid.ActCompute, grid.ActStorage)
	otl, err := replicas[0].Table().OTL(0, 1, toa)
	if err != nil {
		t.Fatal(err)
	}
	if otl != grid.LevelC {
		t.Fatalf("replica OTL = %v, want LevelC", otl)
	}

	// A monitoring agent revises trust at the centre; poll loops must
	// converge both replicas.
	if err := table.Set(0, 1, grid.ActCompute, grid.LevelE); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, rep := range replicas {
		wg.Add(1)
		go func(rep *trustwire.Replica) {
			defer wg.Done()
			rep.Poll(2*time.Millisecond, stop, nil)
		}(rep)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, rep := range replicas {
		for {
			if tl, ok := rep.Table().Get(0, 1, grid.ActCompute); ok && tl == grid.LevelE {
				break
			}
			if time.Now().After(deadline) {
				close(stop)
				t.Fatalf("replica %d did not converge to the revised level", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	for i, rep := range replicas {
		if rep.Version() != table.Version() {
			t.Fatalf("replica %d converged at version %d, table at %d", i, rep.Version(), table.Version())
		}
		if rep.SnapshotsApplied() < 1 {
			t.Fatalf("replica %d applied no snapshots", i)
		}
	}
	if srv.SnapshotsServed() < 2 {
		t.Fatalf("server served %d snapshots, want >= 2 (one cold sync per replica)", srv.SnapshotsServed())
	}
	// The post-revision catch-ups within the history window must have
	// travelled as deltas, not full snapshots.
	if srv.DeltasServed() < 1 {
		t.Fatalf("server served no deltas; revision catch-up fell back to snapshots")
	}
}
