package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"time"
)

// Defaults for the gossip cadence.  The staleness bound is deliberately
// an order of magnitude above the interval: a peer has to miss many
// consecutive gossip rounds before its claims stop influencing local
// scheduling decisions.
const (
	DefaultGossipInterval  = 100 * time.Millisecond
	DefaultStalenessBound  = 3 * time.Second
	DefaultForwardAttempts = 4
)

// Defaults for the failure-handling knobs.  The gossip timeout bounds
// one poll round trip against a black-holed peer (dial + sync); the
// forward timeouts bound the router's peer connections; the breaker
// opens after the threshold of consecutive forward failures and probes
// again after the cooldown.
const (
	DefaultGossipTimeout      = 1 * time.Second
	DefaultForwardDialTimeout = 1 * time.Second
	DefaultForwardOpTimeout   = 5 * time.Second
	DefaultBreakerThreshold   = 5
	DefaultBreakerCooldown    = 1 * time.Second
)

// ShardConfig names one fleet member and its two listen addresses: Addr
// serves rmswire (clients and peer forwarding), TrustAddr serves the
// trustwire replica protocol (peer gossip).
type ShardConfig struct {
	Name      string `json:"name"`
	Addr      string `json:"addr"`
	TrustAddr string `json:"trust_addr"`
}

// Config is the static fleet description every shard, gridctl and
// gridload load from the same file (configs/fleet.json).  The member
// list is the ring: changing it is a topology change and requires a
// rolling restart.
type Config struct {
	// Shards lists the fleet members.  Order fixes each shard's index,
	// which namespaces its placement ids (id >> rmswire.ShardIDShift),
	// so reordering a live fleet's config is a breaking change; adding
	// or removing members at the end is not.
	Shards []ShardConfig `json:"shards"`

	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int `json:"vnodes,omitempty"`

	// GossipIntervalMS is the per-peer trust gossip poll interval.
	GossipIntervalMS int64 `json:"gossip_interval_ms,omitempty"`

	// StalenessBoundMS bounds how old a peer's last successful gossip
	// sync may be before its claims are ignored by the scheduler.
	StalenessBoundMS int64 `json:"staleness_bound_ms,omitempty"`

	// ForwardAttempts bounds transport-level retries when forwarding a
	// mis-routed request to its owning shard (0 = DefaultForwardAttempts).
	ForwardAttempts int `json:"forward_attempts,omitempty"`

	// GossipTimeoutMS bounds one gossip round trip (dial + sync) so a
	// black-holed peer costs one deadline, not a wedged goroutine.
	GossipTimeoutMS int64 `json:"gossip_timeout_ms,omitempty"`

	// ForwardDialTimeoutMS / ForwardOpTimeoutMS bound the router's peer
	// connections: connecting, and one forwarded round trip.
	ForwardDialTimeoutMS int64 `json:"forward_dial_timeout_ms,omitempty"`
	ForwardOpTimeoutMS   int64 `json:"forward_op_timeout_ms,omitempty"`

	// BreakerThreshold is the consecutive forward failures that open a
	// peer's circuit breaker; BreakerCooldownMS is how long it stays
	// open before a half-open probe (0 selects the defaults).
	BreakerThreshold  int   `json:"breaker_threshold,omitempty"`
	BreakerCooldownMS int64 `json:"breaker_cooldown_ms,omitempty"`

	// WrapListener, when non-nil, interposes on the fleet's trust-gossip
	// listener before serving starts (fault injection, test harnesses).
	// Never set from JSON config.
	WrapListener func(net.Listener) net.Listener `json:"-"`
}

// GossipInterval resolves the poll interval.
func (c Config) GossipInterval() time.Duration {
	if c.GossipIntervalMS <= 0 {
		return DefaultGossipInterval
	}
	return time.Duration(c.GossipIntervalMS) * time.Millisecond
}

// StalenessBound resolves the claim staleness bound.
func (c Config) StalenessBound() time.Duration {
	if c.StalenessBoundMS <= 0 {
		return DefaultStalenessBound
	}
	return time.Duration(c.StalenessBoundMS) * time.Millisecond
}

// MaxForwardAttempts resolves the forward retry budget.
func (c Config) MaxForwardAttempts() int {
	if c.ForwardAttempts <= 0 {
		return DefaultForwardAttempts
	}
	return c.ForwardAttempts
}

// GossipTimeout resolves the per-round gossip deadline.
func (c Config) GossipTimeout() time.Duration {
	if c.GossipTimeoutMS <= 0 {
		return DefaultGossipTimeout
	}
	return time.Duration(c.GossipTimeoutMS) * time.Millisecond
}

// ForwardDialTimeout resolves the peer-connection dial deadline.
func (c Config) ForwardDialTimeout() time.Duration {
	if c.ForwardDialTimeoutMS <= 0 {
		return DefaultForwardDialTimeout
	}
	return time.Duration(c.ForwardDialTimeoutMS) * time.Millisecond
}

// ForwardOpTimeout resolves the forwarded round-trip deadline.
func (c Config) ForwardOpTimeout() time.Duration {
	if c.ForwardOpTimeoutMS <= 0 {
		return DefaultForwardOpTimeout
	}
	return time.Duration(c.ForwardOpTimeoutMS) * time.Millisecond
}

// BreakerTripThreshold resolves the consecutive-failure trip count.
func (c Config) BreakerTripThreshold() int {
	if c.BreakerThreshold <= 0 {
		return DefaultBreakerThreshold
	}
	return c.BreakerThreshold
}

// BreakerCooldown resolves how long an open breaker waits before a
// half-open probe.
func (c Config) BreakerCooldown() time.Duration {
	if c.BreakerCooldownMS <= 0 {
		return DefaultBreakerCooldown
	}
	return time.Duration(c.BreakerCooldownMS) * time.Millisecond
}

// Names returns the shard names in config order (the ring members).
func (c Config) Names() []string {
	out := make([]string, len(c.Shards))
	for i, s := range c.Shards {
		out[i] = s.Name
	}
	return out
}

// Index returns the config-order index of the named shard, or -1.
func (c Config) Index(name string) int {
	for i, s := range c.Shards {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the member list for structural problems.
func (c Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("fleet: config has no shards")
	}
	names := make(map[string]struct{}, len(c.Shards))
	addrs := make(map[string]struct{}, 2*len(c.Shards))
	for i, s := range c.Shards {
		if s.Name == "" {
			return fmt.Errorf("fleet: shard %d has no name", i)
		}
		if s.Addr == "" {
			return fmt.Errorf("fleet: shard %q has no addr", s.Name)
		}
		if _, dup := names[s.Name]; dup {
			return fmt.Errorf("fleet: duplicate shard name %q", s.Name)
		}
		names[s.Name] = struct{}{}
		for _, a := range []string{s.Addr, s.TrustAddr} {
			if a == "" {
				continue
			}
			if _, dup := addrs[a]; dup {
				return fmt.Errorf("fleet: address %s used twice", a)
			}
			addrs[a] = struct{}{}
		}
		// Gossip needs a trust address on every member of a multi-shard
		// fleet; a single-shard "fleet" has no peers to gossip with.
		if len(c.Shards) > 1 && s.TrustAddr == "" {
			return fmt.Errorf("fleet: shard %q has no trust_addr (required with peers)", s.Name)
		}
	}
	return nil
}

// LoadConfig reads and validates a fleet config file.  A key Config does
// not declare is an error.
func LoadConfig(path string) (Config, error) {
	var c Config
	data, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("fleet: %w", err)
	}
	// A misspelled key is an error, not a silently kept default.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err = dec.Decode(&c); err == nil && len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		err = errors.New("data after the top-level value")
	}
	if err != nil {
		return c, fmt.Errorf("fleet: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return c, fmt.Errorf("fleet: %s: %w", path, err)
	}
	return c, nil
}
