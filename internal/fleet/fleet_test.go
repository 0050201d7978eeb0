package fleet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/trust"
)

// fleetTopology builds the shared static topology every shard loads:
// four grid domains, each with one RD (one machine) and one CD holding
// one client, so ring ownership spreads keys across shards.
func fleetTopology(t *testing.T) *grid.Topology {
	t.Helper()
	gds := make([]*grid.GridDomain, 4)
	for i := range gds {
		id := grid.DomainID(i)
		gds[i] = &grid.GridDomain{
			ID: id,
			RD: &grid.ResourceDomain{
				ID: id, Owner: "org",
				Supported: map[grid.Activity]grid.TrustLevel{
					grid.ActCompute: grid.LevelC,
					grid.ActStorage: grid.LevelC,
				},
				RTL:      grid.LevelA,
				Machines: []*grid.Machine{{ID: grid.MachineID(i), RD: id}},
			},
			CD: &grid.ClientDomain{
				ID:      id,
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: grid.ClientID(i), CD: id}},
			},
		}
	}
	top, err := grid.NewTopology(gds...)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// reservePort grabs an ephemeral port no earlier call returned and
// releases it so a config can name the address before the listener
// exists (fleet configs are static: peers must know each other's gossip
// address up front).
func reservePort(t *testing.T) string {
	t.Helper()
	reservedMu.Lock()
	defer reservedMu.Unlock()
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		_ = ln.Close()
		if !reserved[addr] {
			reserved[addr] = true
			return addr
		}
	}
}

// reserved is every address reservePort handed out in this process: the
// kernel may give a closed probe's port to the next probe at once, and
// a fleet config naming one address twice does not start.
var (
	reservedMu sync.Mutex
	reserved   = make(map[string]bool)
)

type testShard struct {
	name   string
	trms   *core.TRMS
	srv    *rmswire.Server
	fl     *Fleet
	client *rmswire.Client
}

// startFleet brings up n in-process shards sharing one topology shape,
// gossiping every 20ms with the given staleness bound.
func startFleet(t *testing.T, n int, bound time.Duration) ([]*testShard, Config) {
	t.Helper()
	return startFleetCfg(t, n, bound, nil)
}

// startFleetCfg is startFleet with a hook to adjust the fleet config
// knobs before any shard starts.
func startFleetCfg(t *testing.T, n int, bound time.Duration, mutate func(*Config)) ([]*testShard, Config) {
	t.Helper()
	return startFleetOn(t, n, bound, fleetTopology, mutate)
}

// startFleetOn is startFleetCfg over the topology topo builds.
func startFleetOn(t *testing.T, n int, bound time.Duration, topo func(*testing.T) *grid.Topology, mutate func(*Config)) ([]*testShard, Config) {
	t.Helper()
	shards := make([]*testShard, n)
	cfg := Config{
		GossipIntervalMS: 20,
		StalenessBoundMS: bound.Milliseconds(),
		ForwardAttempts:  3,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	for i := 0; i < n; i++ {
		trms, err := core.New(core.Config{
			Topology: topo(t),
			Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := rmswire.NewServer(trms)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("s%d", i)
		cfg.Shards = append(cfg.Shards, ShardConfig{
			Name: name, Addr: addr.String(), TrustAddr: reservePort(t),
		})
		shards[i] = &testShard{name: name, trms: trms, srv: srv}
	}
	for i, s := range shards {
		fl, err := Start(cfg, s.name, s.srv, s.trms)
		if err != nil {
			t.Fatal(err)
		}
		s.fl = fl
		client, err := rmswire.Dial(cfg.Shards[i].Addr)
		if err != nil {
			t.Fatal(err)
		}
		s.client = client
	}
	t.Cleanup(func() {
		for _, s := range shards {
			s.client.Close()
			s.srv.Close()
			s.fl.Close()
			s.trms.Close()
		}
	})
	return shards, cfg
}

// ownerOf maps a client ID to its owning shard index under the fleet's
// ring (all shards share one ring, so any shard's view works).
func ownerOf(shards []*testShard, client int) int {
	return shards[0].fl.Ring().OwnerIndex(CDKey(grid.DomainID(client)))
}

func TestForwardingPlacesOnOwnerAndRoutesReports(t *testing.T) {
	shards, _ := startFleet(t, 3, time.Second)

	// Every submit enters through shard 0; mis-routed ones must be
	// placed on (and namespaced by) their ring owner.
	placements := make(map[int]*rmswire.PlacementInfo)
	forwards := 0
	for c := 0; c < 4; c++ {
		key := fmt.Sprintf("k-%d", c)
		p, err := shards[0].client.SubmitKeyed(key, grid.ClientID(c),
			[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
		if err != nil {
			t.Fatalf("submit client %d: %v", c, err)
		}
		owner := ownerOf(shards, c)
		if got := int(p.ID >> rmswire.ShardIDShift); got != owner {
			t.Fatalf("client %d: placement %d namespaced to shard %d, ring owner is %d", c, p.ID, got, owner)
		}
		if owner != 0 {
			forwards++
		}
		placements[c] = p
	}
	if forwards == 0 {
		t.Fatal("ring placed every CD on the entry shard; test exercised no forwarding")
	}

	// Reports enter through shard 1 and must reach whichever shard
	// minted the placement, purely from the ID's high bits.
	for c, p := range placements {
		if err := shards[1].client.Report(p.ID, 6, 1); err != nil {
			t.Fatalf("report client %d via shard 1: %v", c, err)
		}
	}
	// A duplicate report must surface the owner's typed replay through
	// the relay unchanged.
	dup, _, err := shards[1].client.RoundTrip(&rmswire.Request{
		Op: rmswire.OpReport, PlacementID: placements[0].ID, Outcome: 6, Now: 2}, nil)
	if err != nil || !dup.Replayed {
		t.Fatalf("duplicate report: replayed=%v err=%v, want the owner's ok reply marked replayed", dup.Replayed, err)
	}

	// Exactly-once accounting: each placement lives on exactly one
	// shard, and the books sum across the fleet.
	totalPlaced := 0
	for _, s := range shards {
		totalPlaced += s.trms.Placed()
	}
	if totalPlaced != 4 {
		t.Fatalf("fleet placed %d tasks for 4 submits", totalPlaced)
	}

	// Forward metrics must show shard 0 relaying to its peers.
	snap := shards[0].srv.Metrics().Snapshot()
	fwd := uint64(0)
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fleet_forward_ok_") {
			fwd += v
		}
	}
	// Mis-routed submits plus any reports shard 1 relayed through 0's
	// placements don't land here; shard 0 forwarded `forwards` submits.
	if fwd < uint64(forwards) {
		t.Fatalf("shard 0 fleet_forward_ok_* = %d, want >= %d", fwd, forwards)
	}
	if snap.Histograms[MetricForwardNS].Count == 0 {
		t.Fatal("fleet_forward_ns histogram empty after forwarding")
	}
}

func TestForwardedIdempotencyKeyReplaysAtOwner(t *testing.T) {
	shards, _ := startFleet(t, 3, time.Second)
	var c int
	for c = 0; c < 4; c++ {
		if ownerOf(shards, c) != 0 {
			break
		}
	}
	p1, err := shards[0].client.SubmitKeyed("dup", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := shards[0].client.SubmitKeyed("dup", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID != p2.ID {
		t.Fatalf("retry of forwarded key double-placed: %d then %d", p1.ID, p2.ID)
	}
	total := 0
	for _, s := range shards {
		total += s.trms.Placed()
	}
	if total != 1 {
		t.Fatalf("fleet placed %d for one keyed submit retried once", total)
	}
}

func TestFailoverServesKeysOfDeadOwnerLocally(t *testing.T) {
	shards, _ := startFleet(t, 2, time.Second)
	var c int
	for c = 0; c < 4; c++ {
		if ownerOf(shards, c) == 1 {
			break
		}
	}
	if c == 4 {
		t.Skip("ring gave shard 1 no CDs (vnode layout)")
	}
	// Kill the owner outright: its listener refuses, so every forward
	// attempt is a pure dial error — provably never delivered.
	shards[1].srv.Close()

	p, err := shards[0].client.SubmitKeyed("orphan", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatalf("failover submit: %v", err)
	}
	if got := int(p.ID >> rmswire.ShardIDShift); got != 0 {
		t.Fatalf("failover placement namespaced to shard %d, want entry shard 0", got)
	}

	// The retry must replay from shard 0's local idempotency table —
	// not re-forward toward the (possibly resurrected) owner.
	p2, err := shards[0].client.SubmitKeyed("orphan", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID != p.ID {
		t.Fatalf("failover key replayed as %d, originally %d", p2.ID, p.ID)
	}

	// Its report routes to shard 0 by ID — the dead owner is never needed.
	if err := shards[0].client.Report(p.ID, 6, 1); err != nil {
		t.Fatalf("report failover placement: %v", err)
	}

	snap := shards[0].srv.Metrics().Snapshot()
	if got := snap.Counters[metricFailover("s1")]; got != 1 {
		t.Fatalf("fleet_forward_failover_s1_total = %d, want 1", got)
	}
}

func TestAmbiguouslyForwardedKeyNeverFailsOver(t *testing.T) {
	shards, _ := startFleet(t, 2, time.Second)
	var c int
	for c = 0; c < 4; c++ {
		if ownerOf(shards, c) == 1 {
			break
		}
	}
	if c == 4 {
		t.Skip("ring gave shard 1 no CDs (vnode layout)")
	}
	shards[1].srv.Close()

	// Simulate an earlier ambiguous forward of this key: it may sit
	// durably placed on the (now dead) owner, so failover is forbidden
	// and the client must keep retrying until the owner returns.
	r := shards[0].fl.router
	r.mu.Lock()
	r.forwarded["limbo"] = struct{}{}
	r.mu.Unlock()

	_, err := shards[0].client.SubmitKeyed("limbo", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	var oe *rmswire.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("ambiguous key with dead owner: want retryable OverloadedError, got %v", err)
	}
	for _, s := range shards {
		if s.trms.Placed() != 0 {
			t.Fatalf("shard %s placed an ambiguous key", s.name)
		}
	}
}

// TestLoadConfigRejectsUnknownKeys: a misspelled knob must not silently
// resolve to its default; the shipped config carries only known keys.
func TestLoadConfigRejectsUnknownKeys(t *testing.T) {
	if _, err := LoadConfig("../../configs/fleet.json"); err != nil {
		t.Fatalf("configs/fleet.json: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fleet.json")
	body := `{"shards":[{"name":"s0","addr":"127.0.0.1:7469"}],"stalenes_bound_ms":5000,"forward_atempts":3}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("misspelled keys: got %v, want an unknown-field error", err)
	}
}

func TestZeroForwardAttemptsConfigStillForwards(t *testing.T) {
	// Regression: the shipped fleet configs omit forward_attempts, so
	// the router must resolve 0 to DefaultForwardAttempts.  Before the
	// fix, attempts=0 meant the forward loop never ran and every
	// mis-routed submit silently failed over onto the entry shard.
	if got := (Config{}).MaxForwardAttempts(); got != DefaultForwardAttempts {
		t.Fatalf("zero config MaxForwardAttempts() = %d, want %d", got, DefaultForwardAttempts)
	}
	shards, _ := startFleetCfg(t, 2, time.Second, func(c *Config) { c.ForwardAttempts = 0 })
	if got := shards[0].fl.router.attempts; got != DefaultForwardAttempts {
		t.Fatalf("router attempts = %d, want %d", got, DefaultForwardAttempts)
	}
	var c int
	for c = 0; c < 4; c++ {
		if ownerOf(shards, c) == 1 {
			break
		}
	}
	if c == 4 {
		t.Skip("ring gave shard 1 no CDs (vnode layout)")
	}
	p, err := shards[0].client.SubmitKeyed("zero-attempts", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatalf("mis-routed submit with default attempts: %v", err)
	}
	if got := int(p.ID >> rmswire.ShardIDShift); got != 1 {
		t.Fatalf("placement namespaced to shard %d, want ring owner 1 (forwarding disabled?)", got)
	}
	if s0, s1 := shards[0].trms.Placed(), shards[1].trms.Placed(); s0 != 0 || s1 != 1 {
		t.Fatalf("placed s0=%d s1=%d, want the owner shard 1 to hold the placement", s0, s1)
	}

	// A mis-routed report must relay to the owner too (before the fix
	// it synthesized StatusOverloaded forever).
	if err := shards[0].client.Report(p.ID, 6, 1); err != nil {
		t.Fatalf("mis-routed report with default attempts: %v", err)
	}
}

func TestMintedForwardKeysAreNotRetained(t *testing.T) {
	shards, cfg := startFleet(t, 2, time.Second)
	// owned[i] is a client whose CD shard i owns.
	owned := [2]int{-1, -1}
	for c := 0; c < 4; c++ {
		if o := ownerOf(shards, c); owned[o] < 0 {
			owned[o] = c
		}
	}
	if owned[0] < 0 || owned[1] < 0 {
		t.Skip("ring gave a shard no CDs (vnode layout)")
	}
	// Keyless mis-routed submits get router-minted idempotency keys; a
	// client can never replay one, so the forwarded set must not grow
	// (it would leak one entry per keyless submit for the process
	// lifetime), and each owner keeps only the last window of an entry
	// shard's keys.  Client-supplied keys are the set's whole purpose and
	// must be retained.  Both shards enter 3W submits the other owns,
	// four connections each.
	const n, conns = 3 * rmswire.ForwardKeyWindow, 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*conns)
	for entry := range shards {
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := rmswire.Dial(cfg.Shards[entry].Addr)
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				for i := w; i < n; i += conns {
					if _, err := c.Submit(grid.ClientID(owned[1-entry]),
						[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, float64(i)); err != nil {
						errs <- fmt.Errorf("keyless submit %d through shard %d: %w", i, entry, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	placed, open := 0, 0
	for _, s := range shards {
		s.fl.router.mu.Lock()
		kept := len(s.fl.router.forwarded)
		s.fl.router.mu.Unlock()
		if kept != 0 {
			t.Errorf("shard %s: forwarded set retained %d router-minted keys, want 0", s.name, kept)
		}
		h, err := s.client.Health()
		if err != nil {
			t.Fatal(err)
		}
		if h.IdemEntries > rmswire.ForwardKeyWindow {
			t.Errorf("shard %s holds %d idempotency keys from one entry instance, want at most %d", s.name, h.IdemEntries, rmswire.ForwardKeyWindow)
		}
		placed += h.Placed
		open += h.OpenPlacements
	}
	if placed != 2*n || open != 2*n {
		t.Errorf("fleet books: placed %d, open %d; want %d acknowledged submits each", placed, open, 2*n)
	}
	r := shards[0].fl.router
	c := owned[1]
	if _, err := shards[0].client.SubmitKeyed("sticky", grid.ClientID(c),
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	_, kept := r.forwarded["sticky"]
	r.mu.Unlock()
	if !kept {
		t.Fatal("client-supplied forwarded key was not retained")
	}
}

func TestGossipClaimsFuseConservativelyAndExpire(t *testing.T) {
	// The claims clock is fixed before gossip starts and read through an
	// atomic skew, so moving it races with no gossip round.
	var skew atomic.Int64
	shards, cfg := startFleetCfg(t, 2, 500*time.Millisecond, func(c *Config) {
		c.now = func() time.Time { return time.Now().Add(time.Duration(skew.Load())) }
	})
	toa := grid.MustToA(grid.ActCompute)

	// Shard 1 learns (locally, authoritatively) that RD 2 collapsed for
	// CD 0's compute work.  Shard 0 has only its seeded LevelC view.
	if err := shards[1].trms.Table().Set(0, 2, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	wantVersion := shards[1].trms.Table().Replica().Version()

	// Gossip must converge: shard 0's synced version for peer s1
	// reaches s1's own table version within a few intervals.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := shards[0].fl.Status()
		if len(info.Peers) == 1 && info.Peers[0].Version >= wantVersion {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never converged: %+v", info.Peers)
		}
		time.Sleep(10 * time.Millisecond)
	}

	claims := shards[0].fl.claims
	// Fresh claim: fused OTL = min(local C, peer claim A) = A.
	if got := claims.FuseOTL(0, 2, toa, grid.LevelC); got != grid.LevelA {
		t.Fatalf("fused OTL = %v, want LevelA from peer claim", got)
	}
	// Local experience always wins downward: a local level below every
	// claim is untouched.
	if got := claims.FuseOTL(0, 2, toa, grid.LevelNone); got != grid.LevelNone {
		t.Fatalf("fusion raised local LevelNone to %v", got)
	}
	// Peers replicate their whole table, so even an untouched triple
	// carries the peer's seeded LevelC claim: min(local D, claim C) = C.
	if got := claims.FuseOTL(3, 3, toa, grid.LevelD); got != grid.LevelC {
		t.Fatalf("fused OTL for seeded triple = %v, want LevelC", got)
	}

	// Staleness bound: silence the peer, wait until a gossip round has
	// failed against it (rounds run one at a time, so no successful one
	// can stamp a claim after that), and advance the claims clock past
	// the bound — the peer's claims must silently drop out of fusion.
	shards[1].fl.Close()
	failed := shards[0].fl.Status().Peers[0].SyncErrors
	deadline = time.Now().Add(5 * time.Second)
	for shards[0].fl.Status().Peers[0].SyncErrors == failed {
		if time.Now().After(deadline) {
			t.Fatal("gossip never failed against the silenced peer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	skew.Store(int64(cfg.StalenessBound() + time.Second))
	if got := claims.FuseOTL(0, 2, toa, grid.LevelC); got != grid.LevelC {
		t.Fatalf("stale claim still fused: got %v, want local LevelC", got)
	}
	info := shards[0].fl.Status()
	if len(info.Peers) != 1 || !info.Peers[0].Stale {
		t.Fatalf("status does not mark peer stale: %+v", info.Peers)
	}
}

// sparseTopology numbers domains by grid-domain index, as gridgen does
// when a grid domain may lack a resource or client domain: grid domain 1
// has a client domain and no resource domain, so the resource domains
// are 0 and 2 and the client domains 0, 1 and 2.
func sparseTopology(t *testing.T) *grid.Topology {
	t.Helper()
	gds := make([]*grid.GridDomain, 3)
	machine := 0
	for i := range gds {
		id := grid.DomainID(i)
		gds[i] = &grid.GridDomain{
			ID: id,
			CD: &grid.ClientDomain{
				ID:      id,
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: grid.ClientID(i), CD: id}},
			},
		}
		if i == 1 {
			continue
		}
		gds[i].RD = &grid.ResourceDomain{
			ID: id, Owner: "org",
			Supported: map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
			RTL:       grid.LevelA,
			Machines:  []*grid.Machine{{ID: grid.MachineID(machine), RD: id}},
		}
		machine++
	}
	top, err := grid.NewTopology(gds...)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestGossipCarriesSparseDomainIDs: a domain id at or above the number of
// domains of its kind (RD 2 of two resource domains) must replicate like
// any other, so gossip hands every peer entry to the claims.
func TestGossipCarriesSparseDomainIDs(t *testing.T) {
	shards, _ := startFleetOn(t, 2, 5*time.Second, sparseTopology, nil)
	peer := shards[1].trms.Table()
	if err := peer.Set(0, 2, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	wantVersion := peer.Replica().Version()
	deadline := time.Now().Add(5 * time.Second)
	var info *rmswire.FleetInfo
	for {
		info = shards[0].fl.Status()
		if len(info.Peers) == 1 && info.Peers[0].Version >= wantVersion {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never converged: %+v", info.Peers)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got, want := info.Peers[0].Entries, peer.Replica().Len(); got != want {
		t.Fatalf("shard 0 holds %d of peer s1's %d entries", got, want)
	}
	if got := shards[0].fl.claims.FuseOTL(0, 2, grid.MustToA(grid.ActCompute), grid.LevelC); got != grid.LevelA {
		t.Fatalf("fused OTL on RD 2 = %v, want the peer's claim LevelA", got)
	}
}

func TestSingleShardFleetIsLocalOnly(t *testing.T) {
	shards, _ := startFleet(t, 1, time.Second)
	p, err := shards[0].client.SubmitKeyed("solo", 2,
		[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID>>rmswire.ShardIDShift != 0 {
		t.Fatalf("single-shard placement %d carries a namespace prefix", p.ID)
	}
	info, err := shards[0].client.Fleet()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != "s0" || len(info.Members) != 1 || len(info.Peers) != 0 {
		t.Fatalf("single-shard fleet info %+v", info)
	}
	snap := shards[0].srv.Metrics().Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "fleet_forward_") || strings.HasPrefix(name, "fleet_gossip_") {
			t.Fatalf("single-shard fleet registered per-peer metric %s", name)
		}
	}
	if shards[0].fl.TrustAddr() != "" {
		t.Fatal("single-shard fleet bound a trust-gossip listener")
	}
}

func TestFleetOpOnNonFleetDaemonErrors(t *testing.T) {
	trms, err := core.New(core.Config{
		Topology: fleetTopology(t),
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rmswire.NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close(); trms.Close() }()
	client, err := rmswire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Fleet(); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Fatalf("fleet op on plain daemon: %v", err)
	}
}
