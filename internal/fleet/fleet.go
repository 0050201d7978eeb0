package fleet

import (
	"fmt"
	"net"
	"sync"

	"gridtrust/internal/core"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/trustwire"
)

// Fleet wires one gridtrustd shard into a multi-daemon ring: it owns
// the consistent-hash ring, the shard-aware router installed into the
// rmswire server, the trustwire server that publishes the local trust
// table to peers, and the gossip goroutines that pull every peer's
// table into the claims overlay.
type Fleet struct {
	cfg    Config
	self   int
	ring   *Ring
	trms   *core.TRMS
	router *router
	claims *Claims // nil on a single-shard ring
	tw     *trustwire.Server
	twAddr net.Addr

	stop   chan struct{}
	wg     sync.WaitGroup
	closed bool
	mu     sync.Mutex
}

// Start joins srv to the fleet described by cfg as the shard named
// self.  Call it after the journal is attached (the placement-ID
// namespace must be raised above whatever replay restored) and before
// ListenAndServe (the router and fleet status hooks are read without
// synchronization once traffic starts).
//
// A single-shard fleet starts no gossip and installs no claim fusion:
// its daemon is byte-identical — WAL and all — to one run without
// -fleet, because shard 0's ID namespace base is 0 and the router's
// ring maps every key to self.
func Start(cfg Config, self string, srv *rmswire.Server, trms *core.TRMS) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	idx := cfg.Index(self)
	if idx < 0 {
		return nil, fmt.Errorf("fleet: shard %q not in config (members: %v)", self, cfg.Names())
	}
	ring, err := NewRing(cfg.Names(), cfg.VNodes)
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		cfg:  cfg,
		self: idx,
		ring: ring,
		trms: trms,
		stop: make(chan struct{}),
	}

	// Namespace this shard's placement IDs so reports route statelessly
	// by ID high bits.  Shard 0 keeps base 0: single-shard byte-identity.
	srv.SetNextIDBase(uint64(idx) << rmswire.ShardIDShift)

	topo := trms.Topology()
	f.router = newRouter(cfg, idx, ring, topo, srv.Metrics(), f.stop)
	srv.Router = f.router
	srv.FleetStatus = f.Status

	if len(cfg.Shards) > 1 {
		// Publish the local authoritative table to peers...
		tw, err := trustwire.NewServer(trms.Table())
		if err != nil {
			return nil, fmt.Errorf("fleet: trust server: %w", err)
		}
		ln, err := net.Listen("tcp", cfg.Shards[idx].TrustAddr)
		if err != nil {
			return nil, fmt.Errorf("fleet: trust listen %s: %w", cfg.Shards[idx].TrustAddr, err)
		}
		addr := ln.Addr()
		if cfg.WrapListener != nil {
			ln = cfg.WrapListener(ln)
		}
		tw.ServeListener(ln)
		f.tw, f.twAddr = tw, addr

		// ...and pull every peer's table into the claims overlay.  The
		// fuser is installed before any client traffic, so the
		// unsynchronized read in Submit is safe (happens-before via the
		// listener goroutine start).
		peers := make([]ShardConfig, 0, len(cfg.Shards)-1)
		for i, s := range cfg.Shards {
			if i != idx {
				peers = append(peers, s)
			}
		}
		f.claims = newClaims(peers, cfg.StalenessBound(), cfg.GossipTimeout(), cfg.now, srv.Metrics())
		trms.SetOTLFuser(f.claims)
		for _, p := range f.claims.peers {
			f.wg.Add(1)
			go func(p *peerState) {
				defer f.wg.Done()
				defer p.rep.Close()
				p.rep.Poll(cfg.GossipInterval(), f.stop, func(err error) { f.claims.round(p, err) })
			}(p)
		}
	}
	return f, nil
}

// Status builds the shard's fleet view, served under the "fleet" wire op.
func (f *Fleet) Status() *rmswire.FleetInfo {
	table := f.trms.Table().Replica()
	info := &rmswire.FleetInfo{
		Shard:            f.cfg.Shards[f.self].Name,
		ShardIndex:       f.self,
		Members:          f.ring.Members(),
		VNodes:           f.ring.VNodes(),
		CDs:              len(f.trms.Topology().ClientDomains()),
		TableVersion:     table.Version(),
		TableEntries:     table.Len(),
		GossipIntervalMS: f.cfg.GossipInterval().Milliseconds(),
		StalenessBoundMS: f.cfg.StalenessBound().Milliseconds(),
	}
	if f.claims != nil {
		info.Peers = f.claims.peerInfos()
		// Annotate each peer with this shard's forward-path breaker.
		for i := range info.Peers {
			if br := f.router.breakerAt(f.cfg.Index(info.Peers[i].Name)); br != nil {
				state, opens, closes := br.snapshot()
				info.Peers[i].Breaker = state
				info.Peers[i].BreakerOpens = opens
				info.Peers[i].BreakerCloses = closes
			}
		}
	}
	return info
}

// Ring exposes the fleet's hash ring (ownership queries for tooling).
func (f *Fleet) Ring() *Ring { return f.ring }

// TrustAddr returns the bound trust-gossip listen address, or "" on a
// single-shard fleet.
func (f *Fleet) TrustAddr() string {
	if f.twAddr == nil {
		return ""
	}
	return f.twAddr.String()
}

// Close stops gossip, the trust server, and every cached peer
// connection.  Idempotent; call after the rmswire server stops
// accepting (the router must not be routing concurrently with close).
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.stop)
	f.wg.Wait()
	if f.tw != nil {
		f.tw.Close()
	}
	f.router.close()
}
