package fleet

import (
	"sync"
	"testing"
	"time"

	"gridtrust/internal/chaos"
	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/load"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/testutil"
)

// armOnReport is a Router decorator for the entry shard: the first
// report it sees triggers arm before routing continues, so the fault
// lands on exactly that report's forward hop.
type armOnReport struct {
	inner rmswire.Router
	once  sync.Once
	arm   func()
}

func (a *armOnReport) Route(req rmswire.Request) (rmswire.Response, bool) {
	if req.Op == rmswire.OpReport {
		a.once.Do(a.arm)
	}
	return a.inner.Route(req)
}

// lostReplyFleet is a 2-shard chaos fleet in which the first report
// entering through the non-owner of client 0 loses its reply on the
// forward hop: the entry shard's forward connection is dropped and the
// owner's next accepted connection is reset once its first frame is
// read, so the owner executes the report and the reply dies with the
// connection.  The wire heals as soon as that reset has fired, so the
// router's second forward attempt reaches a healthy owner.
func lostReplyFleet(t *testing.T) (entry, owner *testShard, ownerWire *chaos.Wire) {
	t.Helper()
	shards, wires, _ := startChaosFleet(t, 2, 77, func(c *Config) {
		c.ForwardAttempts = 6 // ~125 ms of forward backoff for the heal to land in
	})
	o := ownerOf(shards, 0)
	entry, owner, ownerWire = shards[1-o], shards[o], wires[o]
	// Gossip holds its own connection to the owner's (wrapped) trust
	// listener; wait until it exists so it cannot draw the reset fate.
	waitFor(t, 5*time.Second, func() bool {
		return !peerView(t, entry, owner.name).Stale
	}, "entry shard never synced the owner's trust table")

	// Forward over a connection this test can drop: whatever healthy
	// connection earlier forwards left behind, the armed report's forward
	// must dial a new one to draw the reset fate.
	peer := entry.fl.router.peers[o]
	fwd := frame.NewConn(peer.cfg.Addr, time.Second)
	_ = peer.client.Close()
	peer.client = rmswire.NewClient(fwd)
	peer.client.Timeout = time.Second

	var healed sync.WaitGroup
	t.Cleanup(healed.Wait)
	entry.srv.Router = &armOnReport{inner: entry.fl.router, arm: func() {
		fwd.Drop()
		ownerWire.SetFaults(chaos.Faults{ResetProb: 1, ResetAfterMax: 1})
		healed.Add(1)
		go func() {
			defer healed.Done()
			for deadline := time.Now().Add(5 * time.Second); ownerWire.Resets() < 1 && time.Now().Before(deadline); {
				time.Sleep(50 * time.Microsecond)
			}
			ownerWire.SetFaults(chaos.Faults{})
		}()
	}}
	return entry, owner, ownerWire
}

// lostOnce checks that the fault fired as scripted: one injected reset,
// settled by one replay at the owner.
func lostOnce(t *testing.T, owner *testShard, wire *chaos.Wire) {
	t.Helper()
	if got := wire.Resets(); got != 1 {
		t.Fatalf("injected resets = %d, want 1 (the fault never hit the forward hop)", got)
	}
	if got := owner.srv.Metrics().Snapshot().Counters[rmswire.MetricReportReplays]; got != 1 {
		t.Errorf("owner report_replays_total = %d, want 1", got)
	}
}

func openPlacements(t *testing.T, s *testShard) int {
	t.Helper()
	st, err := s.client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.OpenPlacements
}

// TestLostForwardReplyReportIsExactlyOnce pins ROADMAP item 1: a report
// forwarded to the shard that minted the placement, executed there, and
// answered into a connection that died must still end as one
// acknowledged report — for a bare client, for a Retrier on its first
// attempt, and in the load driver's books.
func TestLostForwardReplyReportIsExactlyOnce(t *testing.T) {
	submit := func(t *testing.T, via *testShard) *rmswire.PlacementInfo {
		t.Helper()
		p, err := via.client.SubmitKeyed("lost-reply", 0,
			[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("client", func(t *testing.T) {
		t.Cleanup(testutil.LeakCheck(t))
		entry, owner, wire := lostReplyFleet(t)
		p := submit(t, owner)
		if err := entry.client.Report(p.ID, 5, 1); err != nil {
			t.Errorf("report through the non-owner: %v (the client's books keep the placement open; owner open_placements = %d)",
				err, openPlacements(t, owner))
		}
		if got := openPlacements(t, owner); got != 0 {
			t.Errorf("owner open_placements = %d, want 0", got)
		}
		lostOnce(t, owner, wire)
	})

	t.Run("retrier", func(t *testing.T) {
		t.Cleanup(testutil.LeakCheck(t))
		entry, owner, wire := lostReplyFleet(t)
		p := submit(t, owner)
		r := rmswire.NewRetrier(rmswire.RetrierConfig{Addr: entry.fl.cfg.Shards[entry.fl.self].Addr, Seed: 5})
		defer r.Close()
		if err := r.Report(p.ID, 5, 1); err != nil {
			t.Errorf("retried report through the non-owner: %v", err)
		}
		if c := r.Counters(); c.Attempts != 1 {
			t.Errorf("retrier used %d attempts, want 1: the router's own retry must settle it", c.Attempts)
		}
		if got := openPlacements(t, owner); got != 0 {
			t.Errorf("owner open_placements = %d, want 0", got)
		}
		lostOnce(t, owner, wire)
	})

	t.Run("load", func(t *testing.T) {
		t.Cleanup(testutil.LeakCheck(t))
		entry, owner, wire := lostReplyFleet(t)
		cfg := entry.fl.cfg
		rep, err := load.Run(load.Config{
			FleetAddrs: []string{cfg.Shards[entry.fl.self].Addr, cfg.Shards[owner.fl.self].Addr},
			Clients:    1, // worker 0 is client 0, pinned to the entry shard
			Duration:   50 * time.Millisecond,
			Seed:       3,
			KeyPrefix:  "lost-reply",
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ReportErrors != 0 || rep.ReportsOK != rep.SubmitsOK {
			t.Errorf("load books: %d submits ok, %d reports ok, %d report errors; want every report ok",
				rep.SubmitsOK, rep.ReportsOK, rep.ReportErrors)
		}
		for _, c := range rep.Reconcile.Checks {
			if !c.OK && !c.Skipped {
				t.Errorf("reconcile %s: got %d want %d", c.Name, c.Got, c.Want)
			}
		}
		lostOnce(t, owner, wire)
	})
}
