package fleet

import (
	"sync/atomic"
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
	now   func() time.Time // injectable for staleness tests; fixed before gossip starts
	peers []*peerState
}

// peerState is one peer's gossip state.  The replica is the one copy of
// the peer's table and lives as long as the process; the gossip
// goroutine polls it and publishes each successful round as one claim,
// which the scheduler (FuseOTL) and status reporting load without a lock.
type peerState struct {
	cfg   ShardConfig
	rep   *trustwire.Replica
	claim atomic.Pointer[claim] // nil before the first successful round
	syncC *metrics.Counter
	errC  *metrics.Counter
}

// claim is one successful gossip round: the peer's table and the instant
// it was known current, published together so a reader never pairs one
// round's table with another's age.
type claim struct {
	table *grid.TableReplica
	at    time.Time
}

// newClaims builds the claim state for the given peers (self excluded).
// timeout bounds one gossip round trip (dial + sync): a black-holed
// peer then costs at most one deadline per tick instead of wedging its
// gossip goroutine, and drops out of fusion once the staleness bound
// passes.  A nil now reads the wall clock.  Nothing is dialled until the
// first round.
func newClaims(peers []ShardConfig, bound, timeout time.Duration, now func() time.Time, reg *metrics.Registry) *Claims {
	if now == nil {
		now = time.Now
	}
	c := &Claims{bound: bound, now: now}
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
		cl := p.claim.Load()
		if !c.fresh(cl, now) {
			continue
		}
		lvl, err := cl.table.OTL(cd, rd, toa)
		if err != nil {
			continue
		}
		if lvl < fused {
			fused = lvl
		}
	}
	return fused
}

// fresh reports whether a peer's claim enters fusion at now: there is
// one, and it is no older than the staleness bound.  FuseOTL and
// peerInfos both read this rule, so a peer shown fresh is one fused.
func (c *Claims) fresh(cl *claim, now time.Time) bool {
	return cl != nil && now.Sub(cl.at) <= c.bound
}

// round is p's Poll hook, run after each gossip round.  A round whose
// Sync succeeded — a table applied or the peer answered "current" —
// publishes the replica's table as a fresh claim; a failed one leaves the
// claim to age, so a silent peer goes stale at the bound.  After an error
// the replica's next poll rides a new connection and cold-syncs a full
// snapshot — the anti-entropy path: whatever diverged (missed deltas, a
// peer restart that reset its version counter) is healed by it.
func (c *Claims) round(p *peerState, err error) {
	if err != nil {
		p.errC.Inc()
		return
	}
	p.claim.Store(&claim{table: p.rep.Table(), at: c.now()})
	p.syncC.Inc()
}

// peerInfos snapshots every peer's gossip state for the fleet op.
func (c *Claims) peerInfos() []rmswire.FleetPeerInfo {
	now := c.now()
	out := make([]rmswire.FleetPeerInfo, 0, len(c.peers))
	for _, p := range c.peers {
		cl := p.claim.Load()
		info := rmswire.FleetPeerInfo{
			Name:       p.cfg.Name,
			Addr:       p.cfg.Addr,
			TrustAddr:  p.cfg.TrustAddr,
			AgeMS:      -1,
			Stale:      !c.fresh(cl, now),
			Syncs:      p.syncC.Load(),
			SyncErrors: p.errC.Load(),
		}
		if cl != nil {
			info.Version, info.Entries = cl.table.Version(), cl.table.Len()
			info.AgeMS = now.Sub(cl.at).Milliseconds()
		}
		out = append(out, info)
	}
	return out
}
