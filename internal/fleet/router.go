package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
)

// forwardRetryAfter is the backoff hint on a synthesized
// StatusOverloaded when forwarding is exhausted: the client's retrier
// waits this long, then retries the same idempotency key through the
// same entry shard.  (The dial and op timeouts are config knobs; see
// Config.ForwardDialTimeout / Config.ForwardOpTimeout.)
const forwardRetryAfter = 50 * time.Millisecond

// errBreakerOpen marks forward attempts refused locally by an open
// circuit breaker: no bytes went toward the peer, so for failover
// purposes the op provably never reached the owner.
var errBreakerOpen = errors.New("fleet: circuit breaker open")

// errShutdown aborts a forward's backoff when the fleet is closing.
var errShutdown = errors.New("fleet: shutting down")

// routerPeer is everything the router holds about one other shard: the
// client it forwards through, for the life of the process (the connection
// underneath redials by itself), the circuit breaker on that path, and
// the forward counters.
type routerPeer struct {
	cfg    ShardConfig
	client *rmswire.Client
	br     *breaker

	ok       *metrics.Counter // relayed StatusOK responses
	relayErr *metrics.Counter // relayed error/overloaded responses
	fail     *metrics.Counter // forwarding exhausted, retryable synthesized
	failover *metrics.Counter // served locally after proven-unreachable owner
}

// router implements rmswire.Router: it decides, per request, whether
// this shard owns the key and — when it does not — relays the request
// to the owning shard through that peer's client.
//
// Ownership:
//
//   - submits hash the client's CD onto the ring (all of a client
//     domain's direct experience accumulates on one shard, so the
//     per-CD trust trajectory is exactly the single-daemon one);
//   - reports are routed by the placement ID's embedded shard index
//     (rmswire.ShardIDShift), statelessly — whichever shard minted the
//     placement owns its outcome.
//
// Exactly-once across forwarding: the original idempotency key rides
// the forwarded frame, so forward-level retries dedupe at the owner
// exactly like client-level retries dedupe at a single daemon.  The
// one genuinely dangerous transition is failover — serving a key
// locally because the owner is down.  That is allowed only when this
// router can prove the owner never saw the key: every attempt of this op
// was not sent (rmswire.After said Failover each time), and no earlier op
// ever put the key on the wire toward a peer (the forwarded set below).
// Anything else is ambiguous, and ambiguity surfaces to the client as a
// retryable overload so the retry funnels back through this same entry shard —
// where either the local idempotency table (if we failed over) or the
// owner's (if the forward landed) resolves it to the original
// placement.  The guarantee is therefore per entry shard: a client
// must retry a key through the shard it first submitted it to, which
// is what the load driver's pinned workers do.
type router struct {
	self     string
	selfIdx  int
	ring     *Ring
	attempts int

	// peers is indexed like Config.Shards (nil for the self slot); stop
	// aborts in-flight forward backoffs on fleet shutdown.
	peers []*routerPeer
	stop  <-chan struct{}

	// clientCD resolves a wire client ID to its owning CD; built once
	// from the topology so routing never takes the scheduler lock.
	clientCD map[int]grid.DomainID

	forwardNS *metrics.Histogram

	// instance+fwdSeq generate idempotency keys for keyless forwarded
	// submits, unique per entry-shard process lifetime.
	instance int64
	fwdSeq   atomic.Uint64

	// forwarded remembers client-supplied idempotency keys that may
	// have reached a peer, to forbid failover for them forever.  It
	// only holds keys a later op could legally replay, i.e. client
	// keys — router-minted fwd-* keys are unique per op and are never
	// recorded.  Growth is one entry per distinct forwarded client key
	// for the process lifetime: bounded by the client keyspace, which
	// clients that reuse or rotate bounded key sets keep small.  A
	// known limit, accepted because dropping an entry early would
	// permit a double placement.
	mu        sync.Mutex
	forwarded map[string]struct{}
}

func newRouter(cfg Config, selfIdx int, ring *Ring, topo *grid.Topology, reg *metrics.Registry, stop <-chan struct{}) *router {
	r := &router{
		self:      cfg.Shards[selfIdx].Name,
		selfIdx:   selfIdx,
		ring:      ring,
		attempts:  cfg.MaxForwardAttempts(),
		peers:     make([]*routerPeer, len(cfg.Shards)),
		stop:      stop,
		clientCD:  make(map[int]grid.DomainID, len(topo.Clients())),
		forwardNS: reg.Histogram(MetricForwardNS),
		instance:  time.Now().UnixNano(),
		forwarded: make(map[string]struct{}),
	}
	for _, c := range topo.Clients() {
		r.clientCD[int(c.ID)] = c.CD
	}
	for i, s := range cfg.Shards {
		if i == selfIdx {
			continue
		}
		client := rmswire.NewClient(frame.NewConn(s.Addr, cfg.ForwardDialTimeout()))
		client.Timeout = cfg.ForwardOpTimeout()
		r.peers[i] = &routerPeer{
			cfg:      s,
			client:   client,
			ok:       reg.Counter(metricForwardOK(s.Name)),
			relayErr: reg.Counter(metricForwardErr(s.Name)),
			fail:     reg.Counter(metricForwardFail(s.Name)),
			failover: reg.Counter(metricFailover(s.Name)),
			br: newBreaker(cfg.BreakerTripThreshold(), cfg.BreakerCooldown(),
				reg.Counter(metricBreakerOpen(s.Name)), reg.Counter(metricBreakerClose(s.Name))),
		}
	}
	return r
}

// breakerAt exposes a peer's breaker for status reporting (nil for the
// self slot or out-of-range indexes).
func (r *router) breakerAt(idx int) *breaker {
	if idx < 0 || idx >= len(r.peers) || r.peers[idx] == nil {
		return nil
	}
	return r.peers[idx].br
}

// Route implements rmswire.Router.
func (r *router) Route(req rmswire.Request) (rmswire.Response, bool) {
	switch req.Op {
	case rmswire.OpSubmit:
		cd, ok := r.clientCD[req.Client]
		if !ok {
			// Unknown client: let the local submit path produce the
			// canonical error.
			return rmswire.Response{}, false
		}
		idx := r.ring.OwnerIndex(CDKey(cd))
		if idx == r.selfIdx {
			return rmswire.Response{}, false
		}
		minted := false
		if req.IdemKey == "" {
			// Give keyless submits a forward-scoped key so transport
			// retries inside forward() stay exactly-once at the owner.
			// Client-level retries of keyless submits mint fresh keys
			// and accept double-place risk, exactly as on one daemon.
			req.IdemKey = fmt.Sprintf("fwd-%s-%d-%d", r.self, r.instance, r.fwdSeq.Add(1))
			minted = true
		}
		return r.forward(idx, req, true, minted)
	case rmswire.OpReport:
		idx := int(req.PlacementID >> rmswire.ShardIDShift)
		if idx == r.selfIdx {
			return rmswire.Response{}, false
		}
		if idx >= len(r.peers) {
			return rmswire.Response{
				Status: rmswire.StatusError,
				Error:  fmt.Sprintf("placement %d names shard index %d outside the %d-shard ring", req.PlacementID, idx, len(r.peers)),
			}, true
		}
		return r.forward(idx, req, false, false)
	}
	return rmswire.Response{}, false
}

// forward relays req to the shard at idx.  submit enables failover
// bookkeeping (reports are never failed over: only the minting shard
// can apply an outcome); minted marks a router-generated idempotency
// key, which no later op can ever replay.
func (r *router) forward(idx int, req rmswire.Request, submit, minted bool) (rmswire.Response, bool) {
	p := r.peers[idx]
	req.Forwarded = true

	var prior bool
	if submit && !minted {
		// Record the key as possibly-delivered *before* the first
		// attempt, and learn whether any earlier op already did.  The
		// set is append-only: once a key may have reached a peer,
		// failover for it is forbidden forever (the peer may hold its
		// placement durably even across its own restarts).  Minted
		// keys skip this: they are unique per op, so the within-op
		// `reached` flag below is their entire failover proof and
		// recording them would only leak an entry per keyless submit.
		r.mu.Lock()
		_, prior = r.forwarded[req.IdemKey]
		if !prior {
			r.forwarded[req.IdemKey] = struct{}{}
		}
		r.mu.Unlock()
	}

	began := time.Now()
	reached := false // any attempt this op may have touched the owner
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			// Backoff aborts on fleet shutdown: a closing shard must not
			// sit out the full schedule before its drain can finish.
			select {
			case <-time.After(forwardBackoff(attempt)):
			case <-r.stop:
				lastErr = errShutdown
				attempt = r.attempts // no further attempts
				continue
			}
		}
		if !p.br.allow() {
			// Open breaker: fail fast without paying the dial timeout.
			// No bytes went toward the peer, so `reached` stays false and
			// eligible submits take the failover path below immediately.
			lastErr = errBreakerOpen
			break
		}
		resp, d, err := p.client.RoundTrip(req)
		switch rmswire.After(d, resp.Status) {
		case rmswire.Failover:
			// Not sent: the owner saw nothing of this attempt.
			p.br.record(false)
			lastErr = err
			continue
		case rmswire.Retry:
			if d != frame.Answered {
				// Maybe sent: the owner may have executed the request
				// with only the reply lost.  The next attempt's replay
				// settles it — the idempotency key for a submit, the
				// Replayed flag for a report — but the key is the
				// owner's now, whatever happens next.
				p.br.record(false)
				reached = true
				lastErr = err
				continue
			}
			// The owner's own overloaded reply.  The owner is up, and
			// serving its retry_after is the client's retrier's job, not
			// a reason to ask again from here: relayed like any frame.
		}
		// A server frame came back — relay it verbatim.
		p.br.record(true)
		r.forwardNS.Observe(uint64(time.Since(began)))
		if resp.Status == rmswire.StatusOK {
			p.ok.Inc()
		} else {
			p.relayErr.Inc()
		}
		// The owner closing the forward connection (drain, shed) is the
		// forward client's business, not the end client's.
		resp.ConnClosing = false
		return resp, true
	}

	if submit && !reached && !prior {
		// Proven unreachable: every attempt ever made for this key
		// failed before a byte reached the owner.  Serve locally — the
		// placement journals here under the client's idempotency key,
		// and the server consults its local table before routing, so
		// retries replay from here instead of re-forwarding.
		p.failover.Inc()
		return rmswire.Response{}, false
	}
	p.fail.Inc()
	return rmswire.Response{
		Status:       rmswire.StatusOverloaded,
		Error:        fmt.Sprintf("forward to shard %s (%s) failed: %v", p.cfg.Name, p.cfg.Addr, lastErr),
		RetryAfterMS: forwardRetryAfter.Milliseconds(),
	}, true
}

// forwardBackoff spaces forward retries: 5ms, 10ms, 20ms, ... capped at
// 50ms.  Dial-refused failures burn through the schedule in tens of
// milliseconds, so failover after a shard crash is near-immediate.
func forwardBackoff(attempt int) time.Duration {
	d := 5 * time.Millisecond << (attempt - 1)
	if d > 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// close releases every peer connection; a forward in flight fails.
func (r *router) close() {
	for _, p := range r.peers {
		if p != nil {
			_ = p.client.Close()
		}
	}
}
