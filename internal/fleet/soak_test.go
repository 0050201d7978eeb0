package fleet

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/chaos"
	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/load"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/testutil"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// soakSeed fixes every random choice in the chaos soak — wire fates
// and load arrivals — so a failure reproduces bit-for-bit from the seed
// alone.
const soakSeed = 0xC4A05

// soakShard is one journaled, chaos-wrapped member of the soak fleet.
// Unlike testShard it can crash (SIGKILL-equivalent: sockets die, the
// WAL is abandoned without a final flush) and reboot over the same WAL
// directory on the same addresses.
type soakShard struct {
	name  string
	dir   string
	addr  string // fixed rmswire address, survives reboot
	taddr string // fixed trust-gossip address, survives reboot
	wire  *chaos.Wire

	mu   sync.Mutex
	trms *core.TRMS
	srv  *rmswire.Server
	fl   *Fleet
	log  *wal.Log
}

// boot starts (or restarts) the shard: recover the WAL, replay it into
// a fresh TRMS, serve through the shard's chaos wire, join the fleet.
func (s *soakShard) boot(topo *grid.Topology, cfg Config) error {
	trms, err := core.New(core.Config{
		Topology: topo,
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	if err != nil {
		return err
	}
	srv, err := rmswire.NewServer(trms)
	if err != nil {
		return err
	}
	log, rec, err := wal.Create(s.dir, wal.Options{})
	if err != nil {
		return err
	}
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		return fmt.Errorf("rebind %s: %w", s.addr, err)
	}
	shardCfg := cfg
	shardCfg.WrapListener = s.wire.Listener
	// Start installs the router and claim fuser; only then may traffic
	// flow (the unsynchronized reads in the submit path rely on the
	// happens-before of the accept-loop start).
	fl, err := Start(shardCfg, s.name, srv, trms)
	if err != nil {
		_ = ln.Close()
		return err
	}
	srv.ServeListener(s.wire.Listener(ln))
	s.mu.Lock()
	s.trms, s.srv, s.fl, s.log = trms, srv, fl, log
	s.mu.Unlock()
	return nil
}

// crash is the SIGKILL-equivalent: every socket dies and the WAL is
// abandoned mid-flight — no final Close, no checkpoint.  Only what
// fsync acked survives, which is exactly the durability contract the
// reboot's recovery is asserted against.  (Goroutines are reaped so
// the leak check stays meaningful; a real SIGKILL reaps harder.)
func (s *soakShard) crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
	s.fl.Close()
	s.trms.Close()
	s.log = nil // deliberately not Closed
}

// stop is the end-of-test teardown (flushes the WAL, unlike crash).
func (s *soakShard) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
	s.fl.Close()
	s.trms.Close()
	if s.log != nil {
		_ = s.log.Close()
	}
}

// TestChaosSoak drives a gridload storm through a three-shard journaled
// fleet while a scripted, seeded fault schedule degrades one shard's
// wire, black-holes another, and SIGKILL-restarts a third mid-run —
// then audits the books: every idempotency key resolved, durable
// anchors balanced across the fleet, the partitioned peer dropped out
// of fusion within the staleness bound, the circuit breaker opened and
// closed, and no goroutine outlived its owner.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak takes ~10s")
	}
	t.Cleanup(testutil.LeakCheck(t)) // registered first: runs after teardown

	const (
		nShards     = 3
		opTimeout   = 250 * time.Millisecond
		breakerCool = 250 * time.Millisecond
	)
	cfg := Config{
		GossipIntervalMS:     25,
		StalenessBoundMS:     300,
		GossipTimeoutMS:      150,
		ForwardAttempts:      3,
		ForwardDialTimeoutMS: opTimeout.Milliseconds(),
		ForwardOpTimeoutMS:   opTimeout.Milliseconds(),
		BreakerThreshold:     3,
		BreakerCooldownMS:    breakerCool.Milliseconds(),
	}
	shards := make([]*soakShard, nShards)
	for i := range shards {
		shards[i] = &soakShard{
			name:  fmt.Sprintf("s%d", i),
			dir:   t.TempDir(),
			addr:  reservePort(t),
			taddr: reservePort(t),
			wire:  chaos.NewWire(soakSeed + uint64(i)),
		}
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Name: shards[i].name, Addr: shards[i].addr, TrustAddr: shards[i].taddr,
		})
	}
	topo := fleetTopology(t)
	for _, s := range shards {
		if err := s.boot(topo, cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, w := range []*chaos.Wire{shards[0].wire, shards[1].wire, shards[2].wire} {
			w.Partition(false)
		}
		for _, s := range shards {
			s.stop()
		}
	})

	// The scripted schedule, relative to storm start:
	//   0.6s  s1's wire degrades: latency, trickle, occasional resets
	//   1.5s  s2 black-holed (partition)
	//   2.5s  s2 heals; s1's wire faults clear
	//   3.0s  s1 crashes (SIGKILL-equivalent) and reboots over its WAL
	schedule := func(start time.Time, done <-chan struct{}, errs chan<- error) {
		at := func(d time.Duration) bool {
			select {
			case <-time.After(time.Until(start.Add(d))):
				return true
			case <-done:
				return false
			}
		}
		if !at(600 * time.Millisecond) {
			return
		}
		shards[1].wire.SetFaults(chaos.Faults{
			Latency: time.Millisecond, Jitter: 2 * time.Millisecond,
			TrickleProb: 0.02, ResetProb: 0.05, ResetAfterMax: 64 << 10,
		})
		if !at(1500 * time.Millisecond) {
			return
		}
		shards[2].wire.Partition(true)
		if !at(2500 * time.Millisecond) {
			return
		}
		shards[2].wire.Partition(false)
		shards[1].wire.SetFaults(chaos.Faults{})
		if !at(3 * time.Second) {
			return
		}
		shards[1].crash()
		if err := shards[1].boot(topo, cfg); err != nil {
			errs <- fmt.Errorf("reboot s1: %w", err)
		}
	}

	stormDone := make(chan struct{})
	schedErrs := make(chan error, 1)
	var schedWG sync.WaitGroup
	schedWG.Add(1)
	go func() {
		defer schedWG.Done()
		schedule(time.Now(), stormDone, schedErrs)
	}()

	rep, err := load.Run(load.Config{
		FleetAddrs:     []string{shards[0].addr, shards[1].addr, shards[2].addr},
		Clients:        6,
		Duration:       4 * time.Second,
		ReportFraction: 0.5,
		Seed:           soakSeed,
		KeyPrefix:      "soak",
		MaxAttempts:    12,
		OpTimeout:      2 * time.Second,
		Budget:         20 * time.Second,
		SettleTimeout:  30 * time.Second,
	})
	close(stormDone)
	schedWG.Wait()
	if err != nil {
		t.Fatalf("load storm: %v", err)
	}
	select {
	case serr := <-schedErrs:
		t.Fatal(serr)
	default:
	}

	// Book balance: every key resolved, durable anchors exact across the
	// fleet even though s1 was SIGKILLed and replayed mid-run.
	if rep.SubmitsOK == 0 {
		t.Fatal("storm placed nothing; the soak exercised no paths")
	}
	if rep.Unresolved != 0 {
		t.Fatalf("%d keys still unresolved after settle", rep.Unresolved)
	}
	if !rep.Reconcile.DaemonRestarted {
		t.Fatal("reconcile did not observe the mid-run crash-restart")
	}
	if !rep.Reconcile.OK {
		for _, c := range rep.Reconcile.Checks {
			if !c.OK && !c.Skipped {
				t.Errorf("reconcile %s: got %d want %d (%s)", c.Name, c.Got, c.Want, c.Note)
			}
		}
		t.Fatal("durable-anchor book balance failed under chaos")
	}
	t.Logf("storm: %d submits ok, %d reports ok, %d ambiguous (settled %d), throughput %.0f rps",
		rep.SubmitsOK, rep.ReportsOK, rep.Ambiguous, rep.Settled, rep.ThroughputRPS)

	// Deterministic breaker + staleness exercise, from shard 0's view.
	// The ring layout is deterministic, so pick a CD owned by some other
	// shard and drive submits for it through s0 while that owner is
	// black-holed.
	ring := shards[0].fl.Ring()
	victimCD, victim := -1, -1
	for c := 0; c < 4; c++ {
		if owner := ring.Owner(CDKey(grid.DomainID(c))); owner != "s0" {
			victimCD = c
			victim = cfg.Index(owner)
			break
		}
	}
	if victim < 0 {
		t.Fatal("ring assigned every CD to s0; cannot exercise forwarding")
	}
	vName := cfg.Shards[victim].Name
	cli, err := rmswire.Dial(shards[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	view := func() rmswire.FleetPeerInfo {
		fi, err := cli.Fleet()
		if err != nil {
			t.Fatalf("fleet op: %v", err)
		}
		for _, p := range fi.Peers {
			if p.Name == vName {
				return p
			}
		}
		t.Fatalf("no peer %s in s0's fleet view", vName)
		return rmswire.FleetPeerInfo{}
	}

	shards[victim].wire.Partition(true)

	// Staleness: the black-holed peer leaves fusion within the bound,
	// at one deadline-bounded gossip round per tick.
	waitFor(t, cfg.StalenessBound()+2*cfg.GossipTimeout()+2*time.Second, func() bool {
		return view().Stale
	}, "black-holed peer never dropped out of fusion")

	// Breaker: forwards to the victim burn op deadlines until the
	// threshold trips; one submit's attempt budget is exactly the
	// threshold, so this opens within a few submits regardless of what
	// state the storm left the breaker in.
	submit := func(key string) (time.Duration, error) {
		begin := time.Now()
		_, err := cli.SubmitKeyed(key, grid.ClientID(victimCD),
			[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
		return time.Since(begin), err
	}
	opened := false
	for i := 0; i < 10 && !opened; i++ {
		_, _ = submit(fmt.Sprintf("soakbrk-%d", i))
		opened = view().Breaker == "open"
	}
	pv := view()
	if !opened || pv.BreakerOpens < 1 {
		t.Fatalf("breaker to %s never opened under black-hole (state=%s opens=%d)",
			vName, pv.Breaker, pv.BreakerOpens)
	}

	// Open breaker ⇒ failover without paying any timeout.
	elapsed, err := submit("soakbrk-fast")
	if err != nil {
		t.Fatalf("breaker-open submit did not fail over: %v", err)
	}
	if elapsed >= opTimeout {
		t.Fatalf("breaker-open failover took %v, paid a timeout (%v)", elapsed, opTimeout)
	}

	// Heal: the half-open probe closes the breaker and gossip resumes.
	shards[victim].wire.Partition(false)
	time.Sleep(breakerCool + 50*time.Millisecond)
	closed := false
	for i := 0; i < 10 && !closed; i++ {
		_, _ = submit(fmt.Sprintf("soakheal-%d", i))
		closed = view().Breaker == "closed"
		if !closed {
			time.Sleep(breakerCool)
		}
	}
	pv = view()
	if !closed || pv.BreakerCloses < 1 {
		t.Fatalf("breaker to %s never closed after heal (state=%s closes=%d)",
			vName, pv.Breaker, pv.BreakerCloses)
	}
	waitFor(t, 10*time.Second, func() bool {
		return !view().Stale
	}, "peer never rejoined fusion after heal")
}
