package rmswire

// retrier.go is the client-side half of the overload-resilience layer: a
// Client asked again until After says the answer is final, so callers see
// one logical request stream over an unreliable daemon.  Retries are safe
// because both mutations replay: a submit always travels under an
// idempotency key here, so resubmitting after an ambiguous failure
// (connection died after the frame was written) returns the original
// placement instead of double-placing, and a report the daemon already
// applied is acknowledged again as a replay.
//
// Backoff jitter is drawn from internal/rng seeded by the caller, so a
// retry storm in a test is exactly reproducible run to run.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
)

// Retrier defaults.
const (
	DefaultMaxAttempts = 8
	DefaultBaseBackoff = 10 * time.Millisecond
	DefaultMaxBackoff  = time.Second
)

// ErrExhausted marks a Retrier op that burned every attempt without a
// definitive answer.  For a keyed submit this outcome is AMBIGUOUS: an
// earlier attempt may have placed the task with its acknowledgement
// lost.  Resubmitting the same key resolves it either way.
var ErrExhausted = errors.New("attempts exhausted")

// RetrierConfig parameterises a Retrier.  Zero values select defaults.
type RetrierConfig struct {
	Addr        string
	MaxAttempts int           // attempts per op, including the first
	BaseBackoff time.Duration // backoff before the first retry
	MaxBackoff  time.Duration // exponential growth cap
	DialTimeout time.Duration // per-reconnect dial bound
	OpTimeout   time.Duration // per-op client deadline (0 disables)
	Budget      time.Duration // admission budget sent with each request
	Seed        uint64        // jitter + idempotency-key stream seed
}

func (c RetrierConfig) withDefaults() RetrierConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = DefaultBaseBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultMaxBackoff
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = DefaultDialTimeout
	}
	return c
}

// Retrier is a self-healing client: it retries retryable failures
// (overload sheds, broken or refused connections) with capped exponential
// backoff and deterministic jitter; its Client's connection redials as
// needed.  Application errors — validation failures, unknown placements —
// are returned immediately.  Safe for concurrent use.
type Retrier struct {
	cfg    RetrierConfig
	client *Client

	mu     sync.Mutex // guards the two random streams
	jitter *rng.Source
	keys   *rng.Source

	// Attempt accounting, readable while ops run (Counters); dials are
	// counted by the connection.
	attempts        atomic.Uint64
	overloads       atomic.Uint64
	transportErrors atomic.Uint64
	appErrors       atomic.Uint64
	exhausted       atomic.Uint64
	ok              atomic.Uint64
}

// RetrierCounters is a point-in-time view of a Retrier's attempt
// accounting.  Attempts counts every wire attempt (including redials
// that failed before a frame was sent); Overloads counts overloaded
// replies received; TransportErrors counts attempts lost to a broken
// connection.  OK + AppErrors + Exhausted equals the number of logical
// ops completed.  These are the client-side half of the reconciliation
// story: Overloads here must match the daemon's overload_replies_total
// (within one daemon instance, and when shed_conn_limit is zero — an
// accept-time shed races the peer's first write, so its overloaded
// frame may surface as a transport error instead).
type RetrierCounters struct {
	Attempts        uint64 `json:"attempts"`
	Dials           uint64 `json:"dials"`
	DialErrors      uint64 `json:"dial_errors"`
	Overloads       uint64 `json:"overloads"`
	TransportErrors uint64 `json:"transport_errors"`
	AppErrors       uint64 `json:"app_errors"`
	Exhausted       uint64 `json:"exhausted"`
	OK              uint64 `json:"ok"`
}

// Counters snapshots the Retrier's attempt accounting.
func (r *Retrier) Counters() RetrierCounters {
	dials, dialErrors := r.client.conn.Dials()
	return RetrierCounters{
		Attempts:        r.attempts.Load(),
		Dials:           dials,
		DialErrors:      dialErrors,
		Overloads:       r.overloads.Load(),
		TransportErrors: r.transportErrors.Load(),
		AppErrors:       r.appErrors.Load(),
		Exhausted:       r.exhausted.Load(),
		OK:              r.ok.Load(),
	}
}

// Add accumulates other into c, so per-worker counters fold into a
// fleet-wide total.
func (c *RetrierCounters) Add(other RetrierCounters) {
	c.Attempts += other.Attempts
	c.Dials += other.Dials
	c.DialErrors += other.DialErrors
	c.Overloads += other.Overloads
	c.TransportErrors += other.TransportErrors
	c.AppErrors += other.AppErrors
	c.Exhausted += other.Exhausted
	c.OK += other.OK
}

// NewRetrier builds a Retrier for addr-style config.  Connections are
// dialed lazily on first use.
func NewRetrier(cfg RetrierConfig) *Retrier {
	cfg = cfg.withDefaults()
	master := rng.New(cfg.Seed)
	client := NewClient(frame.NewConn(cfg.Addr, cfg.DialTimeout))
	client.Timeout, client.Budget = cfg.OpTimeout, cfg.Budget
	return &Retrier{
		cfg:    cfg,
		client: client,
		jitter: master.Split(),
		keys:   master.Split(),
	}
}

// NewKey draws the next idempotency key from the Retrier's deterministic
// key stream.
func (r *Retrier) NewKey() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("%016x%016x", r.keys.Uint64(), r.keys.Uint64())
}

// Close releases the connection for good.
func (r *Retrier) Close() error { return r.client.Close() }

// backoff computes the sleep before retry number attempt (0-based): capped
// exponential with deterministic half-jitter, floored by the server's
// retry_after hint when the previous attempt was shed.
func (r *Retrier) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := r.cfg.BaseBackoff
	for i := 0; i < attempt && d < r.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > r.cfg.MaxBackoff {
		d = r.cfg.MaxBackoff
	}
	if retryAfter > d {
		d = retryAfter
	}
	r.mu.Lock()
	jittered := d/2 + time.Duration(r.jitter.Uniform(0, float64(d/2)))
	r.mu.Unlock()
	return jittered
}

// do sends req until After calls a reply final or the attempts run out.
func (r *Retrier) do(req Request) (Response, error) {
	var (
		resp Response
		d    frame.Delivery
		err  error
	)
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoff(attempt-1, time.Duration(resp.RetryAfterMS)*time.Millisecond))
		}
		r.attempts.Add(1)
		resp, d, err = r.client.RoundTrip(&req, nil)
		switch After(d, resp.Status) {
		case Final:
			if err != nil {
				r.appErrors.Add(1)
				return resp, &OpError{Delivery: d, Status: resp.Status, Err: err}
			}
			r.ok.Add(1)
			return resp, nil
		case Retry:
			if d == frame.Answered {
				r.overloads.Add(1) // shed before execution
			} else {
				r.transportErrors.Add(1)
			}
		case Failover:
			// A Retrier has one address: the next attempt dials it again.
		}
	}
	r.exhausted.Add(1)
	return resp, &OpError{Delivery: d, Status: resp.Status,
		Err: fmt.Errorf("rmswire: %d %w: %w", r.cfg.MaxAttempts, ErrExhausted, err)}
}

// Submit schedules a task under a fresh idempotency key, retrying until
// the daemon acknowledges exactly one placement for it.
func (r *Retrier) Submit(client grid.ClientID, activities []grid.Activity, rtl grid.TrustLevel, eec []float64, now float64) (*PlacementInfo, error) {
	return r.SubmitKeyed(r.NewKey(), client, activities, rtl, eec, now)
}

// SubmitKeyed retries a submit under a caller-pinned idempotency key —
// callers that must survive their own restarts derive keys from durable
// task identity instead of the Retrier's stream.
func (r *Retrier) SubmitKeyed(key string, client grid.ClientID, activities []grid.Activity, rtl grid.TrustLevel, eec []float64, now float64) (*PlacementInfo, error) {
	if key == "" {
		return nil, errors.New("rmswire: retried submit requires an idempotency key")
	}
	return placementOf(r.do(submitRequest(key, client, activities, rtl, eec, now)))
}

// Report retries an outcome report.  Reports carry no idempotency key and
// need none: the daemon acknowledges a report it already applied as a
// replay, so an attempt whose acknowledgement was lost — on this
// connection or on a fleet's forward hop — is settled by the next one.
func (r *Retrier) Report(placementID uint64, outcome, now float64) error {
	_, err := r.do(Request{Op: OpReport, PlacementID: placementID, Outcome: outcome, Now: now})
	return err
}

// Stats fetches daemon statistics with retries.
func (r *Retrier) Stats() (*StatsInfo, error) { return statsOf(r.do(Request{Op: OpStats})) }

// Metrics scrapes the daemon's metrics registry with retries.
func (r *Retrier) Metrics() (*MetricsInfo, error) { return metricsOf(r.do(Request{Op: OpMetrics})) }

// Health fetches the daemon readiness view with retries.
func (r *Retrier) Health() (*HealthInfo, error) { return healthOf(r.do(Request{Op: OpHealth})) }
