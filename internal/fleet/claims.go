package fleet

import (
	"fmt"
	"sync"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/trustwire"
)

// Fleet metric names.  Everything the fleet layer measures is prefixed
// "fleet_" so gridctl can group it into its own section; per-peer
// counters embed the peer's shard name.
const (
	// MetricForwardNS is the entry-shard service latency of forwarded
	// requests (dial + remote execution + relay), in nanoseconds.
	MetricForwardNS = "fleet_forward_ns"
)

func metricForwardOK(peer string) string   { return "fleet_forward_ok_" + peer + "_total" }
func metricForwardErr(peer string) string  { return "fleet_forward_relay_err_" + peer + "_total" }
func metricForwardFail(peer string) string { return "fleet_forward_fail_" + peer + "_total" }
func metricFailover(peer string) string    { return "fleet_forward_failover_" + peer + "_total" }
func metricGossipSync(peer string) string  { return "fleet_gossip_sync_" + peer + "_total" }
func metricGossipErr(peer string) string   { return "fleet_gossip_err_" + peer + "_total" }
func metricBreakerOpen(peer string) string { return "fleet_breaker_open_" + peer + "_total" }
func metricBreakerClose(peer string) string {
	return "fleet_breaker_close_" + peer + "_total"
}

// Claims is the bounded-staleness view of every peer's trust table.
// Remote tables arrive over the trustwire replica protocol and enter
// scheduling only through FuseOTL: the decision-time offered trust
// level is min(local table, every fresh peer claim) — the same
// conservative max-fusion as the trust zoo's modelView, lifted from
// trust costs to levels (a lower level is a higher cost).  Local direct
// experience therefore always wins in the direction that matters: no
// peer's optimism can raise trust above what this shard has observed,
// while a peer that watched a resource domain misbehave pulls the fused
// level down even before local experience catches up.
//
// Claims are advisory overlays, never state: they are not journalled,
// they never touch the authoritative table, and when gossip from a peer
// stops for longer than the staleness bound its claims silently drop
// out of fusion (stale trust is worse than no trust — the
// recommendation-purging argument).
type Claims struct {
	bound time.Duration
	now   func() time.Time // injectable for staleness tests
	peers []*peerState
}

// peerState is one peer's gossip state.  The replica lives as long as the
// process and is polled by the gossip goroutine alone; mu guards the claim
// view read by the scheduler (FuseOTL) and by status reporting.
type peerState struct {
	cfg ShardConfig

	mu       sync.Mutex
	table    trustwire.ReadOnlyTable // last applied claim set (nil before first sync)
	version  uint64
	entries  int
	lastSync time.Time // zero = never synced
	syncs    uint64
	errs     uint64

	rep *trustwire.Replica

	syncC *metrics.Counter
	errC  *metrics.Counter
}

// newClaims builds the claim state for the given peers (self excluded).
// timeout bounds one gossip round trip (dial + sync): a black-holed
// peer then costs at most one deadline per tick instead of wedging its
// gossip goroutine, and drops out of fusion once the staleness bound
// passes.  Nothing is dialled until the first round.
func newClaims(peers []ShardConfig, bound, timeout time.Duration, reg *metrics.Registry) *Claims {
	c := &Claims{bound: bound, now: time.Now}
	for _, p := range peers {
		c.peers = append(c.peers, &peerState{
			cfg:   p,
			rep:   trustwire.NewReplica(frame.NewConn(p.TrustAddr, timeout), timeout),
			syncC: reg.Counter(metricGossipSync(p.Name)),
			errC:  reg.Counter(metricGossipErr(p.Name)),
		})
	}
	return c
}

// FuseOTL implements core.OTLFuser: fold every fresh peer claim into
// the local OTL, conservatively.  A peer with no entry for the triple,
// no sync yet, or a last sync older than the staleness bound
// contributes nothing.
func (c *Claims) FuseOTL(cd, rd grid.DomainID, toa grid.ToA, local grid.TrustLevel) grid.TrustLevel {
	fused := local
	now := c.now()
	for _, p := range c.peers {
		p.mu.Lock()
		table, last := p.table, p.lastSync
		p.mu.Unlock()
		if table == nil || last.IsZero() || now.Sub(last) > c.bound {
			continue
		}
		lvl, err := table.OTL(cd, rd, toa)
		if err != nil {
			continue
		}
		if lvl < fused {
			fused = lvl
		}
	}
	return fused
}

// run is one peer's gossip loop: poll the peer's trustwire server every
// interval and swap the claim view on success.  After an error the
// replica's next poll rides a new connection and cold-syncs a full
// snapshot — the anti-entropy path: whatever diverged (missed deltas, a
// peer restart that reset its version counter) is healed by it.
func (c *Claims) run(p *peerState, interval time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	defer p.rep.Close()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			c.syncPeer(p)
		}
	}
}

// syncPeer performs one gossip round against p.
func (c *Claims) syncPeer(p *peerState) {
	if _, err := p.rep.Sync(); err != nil {
		c.recordErr(p)
		return
	}
	table, version := p.rep.Table(), p.rep.Version()
	p.mu.Lock()
	p.table = table
	p.version = version
	p.entries = table.Len()
	p.lastSync = c.now()
	p.syncs++
	p.mu.Unlock()
	p.syncC.Inc()
}

func (c *Claims) recordErr(p *peerState) {
	p.mu.Lock()
	p.errs++
	p.mu.Unlock()
	p.errC.Inc()
}

// peerInfos snapshots every peer's gossip state for the fleet op.
func (c *Claims) peerInfos() []rmswire.FleetPeerInfo {
	now := c.now()
	out := make([]rmswire.FleetPeerInfo, 0, len(c.peers))
	for _, p := range c.peers {
		p.mu.Lock()
		info := rmswire.FleetPeerInfo{
			Name:       p.cfg.Name,
			Addr:       p.cfg.Addr,
			TrustAddr:  p.cfg.TrustAddr,
			Version:    p.version,
			Entries:    p.entries,
			AgeMS:      -1,
			Stale:      true,
			Syncs:      p.syncs,
			SyncErrors: p.errs,
		}
		if !p.lastSync.IsZero() {
			age := now.Sub(p.lastSync)
			info.AgeMS = age.Milliseconds()
			info.Stale = age > c.bound
		}
		p.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// String renders a one-line gossip summary, used in logs.
func (c *Claims) String() string {
	return fmt.Sprintf("claims over %d peer(s), staleness bound %v", len(c.peers), c.bound)
}
