package rmswire

import (
	"errors"
	"fmt"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// DefaultDialTimeout bounds Dial: a dead or blackholed server address
// fails within this window instead of hanging indefinitely.
const DefaultDialTimeout = 5 * time.Second

// Client is the RMS protocol over one frame.Conn: it encodes requests,
// decodes replies and turns reply statuses into errors.  The connection
// underneath redials by itself after a failure, so a Client stays usable
// for as long as its server comes back.  Safe for concurrent use;
// requests are serialised on the connection.
type Client struct {
	// Timeout bounds each op end to end (frame write + response read);
	// 0 disables deadlines.  Set before issuing requests.
	Timeout time.Duration

	// Budget, when positive, is propagated to the server as the request's
	// admission budget (Request.BudgetMS): a loaded server may hold the
	// request that long for an in-flight slot before shedding it.  Zero
	// omits the field, keeping frames byte-identical to older clients.
	Budget time.Duration

	conn *frame.Conn
}

// Dial connects to a gridtrustd server within DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects with an explicit dial timeout; 0 means no limit.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c := NewClient(frame.NewConn(addr, timeout))
	if err := c.conn.Dial(); err != nil {
		return nil, fmt.Errorf("rmswire: %w", err)
	}
	return c, nil
}

// NewClient speaks the protocol over conn, which dials when first used.
func NewClient(conn *frame.Conn) *Client { return &Client{conn: conn} }

// Close releases the connection for good.
func (c *Client) Close() error { return c.conn.Close() }

// Next is what may follow one round trip.
type Next int

const (
	// Final: the server answered ok or error, and that answer decides
	// the op.  Asking again would get the same answer or a replay of it.
	Final Next = iota
	// Retry: ask again, by the same path.  Either the server shed the
	// request before executing it (an overloaded reply, with its
	// retry_after hint), or the request may have been executed with the
	// reply lost.  In both cases the server may know the request's key,
	// so the op must never be served anywhere else.
	Retry
	// Failover: nothing of the request left this process.  Ask again,
	// and if every attempt an op ever made ended here, whoever holds an
	// alternative may use it — the fleet router serves the submit locally.
	Failover
)

// After is the delivery model's one decision: what may follow a round
// trip that got as far as d and, if answered, came back with status.  The
// Retrier's loop, the fleet router's forward loop and the load driver's
// books all switch on it.
func After(d frame.Delivery, status string) Next {
	switch {
	case d == frame.NotSent:
		return Failover
	case d == frame.MaybeSent || status == StatusOverloaded:
		return Retry
	}
	return Final
}

// OpError is an op that did not end in an ok reply.  Delivery and Status
// are those of its last round trip, so After(e.Delivery, e.Status) says
// whether the matter is settled; Err is the cause: an *OverloadedError,
// the server's error text, a transport error, or — from a Retrier that
// gave up — ErrExhausted wrapping the last of those.
type OpError struct {
	Delivery frame.Delivery
	Status   string
	Err      error
}

func (e *OpError) Error() string { return e.Err.Error() }
func (e *OpError) Unwrap() error { return e.Err }

// RoundTrip sends one request frame and returns the decoded reply with
// how far the exchange got.  For an error or overloaded reply the
// Response is populated alongside the non-nil error, which is how the
// fleet router relays an owner's reply verbatim.
func (c *Client) RoundTrip(req Request) (Response, frame.Delivery, error) {
	if c.Budget > 0 && req.BudgetMS == 0 {
		req.BudgetMS = c.Budget.Milliseconds()
	}
	var resp Response
	d, err := c.conn.RoundTrip(c.Timeout, requestCodec.Frame(&req), responseCodec.Frame(&resp))
	if err != nil {
		return Response{}, d, err
	}
	if resp.ConnClosing {
		// The server will close this connection after the frame (drain,
		// accept-time shed).  The reply is valid; dialling now saves the
		// next op from discovering a dead connection the hard way.
		c.conn.Drop()
	}
	switch resp.Status {
	case StatusError:
		err = fmt.Errorf("rmswire: server: %s", resp.Error)
	case StatusOverloaded:
		err = &OverloadedError{
			Reason:     resp.Error,
			RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond,
		}
	}
	return resp, d, err
}

// call is one op over one round trip.
func (c *Client) call(req Request) (Response, error) {
	resp, d, err := c.RoundTrip(req)
	if err != nil {
		return resp, &OpError{Delivery: d, Status: resp.Status, Err: err}
	}
	return resp, nil
}

// submitRequest builds the frame of a (keyed) submit.
func submitRequest(key string, client grid.ClientID, activities []grid.Activity, rtl grid.TrustLevel, eec []float64, now float64) Request {
	ids := make([]int, len(activities))
	for i, a := range activities {
		ids[i] = int(a)
	}
	return Request{
		Op:         OpSubmit,
		Client:     int(client),
		Activities: ids,
		RTL:        rtl.String(),
		EEC:        eec,
		IdemKey:    key,
		Now:        now,
	}
}

// The payload helpers turn an op's (reply, error) into its typed result;
// Client and Retrier share them, one over call and one over do.

func placementOf(resp Response, err error) (*PlacementInfo, error) {
	if err == nil && resp.Placement == nil {
		err = errors.New("rmswire: submit response missing placement")
	}
	return resp.Placement, err
}

func statsOf(resp Response, err error) (*StatsInfo, error) {
	if err == nil && resp.Stats == nil {
		err = errors.New("rmswire: stats response missing stats")
	}
	return resp.Stats, err
}

func healthOf(resp Response, err error) (*HealthInfo, error) {
	if err == nil && resp.Health == nil {
		err = errors.New("rmswire: health response missing info")
	}
	return resp.Health, err
}

func metricsOf(resp Response, err error) (*MetricsInfo, error) {
	if err == nil && resp.Metrics == nil {
		err = errors.New("rmswire: metrics response missing info")
	}
	return resp.Metrics, err
}

// Submit schedules a task and returns its placement.
func (c *Client) Submit(client grid.ClientID, activities []grid.Activity, rtl grid.TrustLevel, eec []float64, now float64) (*PlacementInfo, error) {
	return c.SubmitKeyed("", client, activities, rtl, eec, now)
}

// SubmitKeyed schedules a task under an idempotency key: resubmitting the
// same key — after an ambiguous failure, a reconnect, or even a daemon
// restart — returns the original placement instead of double-placing.
// An empty key behaves exactly like Submit.
func (c *Client) SubmitKeyed(key string, client grid.ClientID, activities []grid.Activity, rtl grid.TrustLevel, eec []float64, now float64) (*PlacementInfo, error) {
	return placementOf(c.call(submitRequest(key, client, activities, rtl, eec, now)))
}

// Report feeds back the observed outcome (on [1,6]) of a placement.  A
// report the daemon has already applied is acknowledged again, not
// rejected (Response.Replayed).
func (c *Client) Report(placementID uint64, outcome, now float64) error {
	_, err := c.call(Request{Op: OpReport, PlacementID: placementID, Outcome: outcome, Now: now})
	return err
}

// Checkpoint asks the daemon to snapshot its state and compact the
// write-ahead log.  It fails if the daemon runs without a journal.
func (c *Client) Checkpoint() (*CheckpointInfo, error) {
	resp, err := c.call(Request{Op: OpCheckpoint})
	if err == nil && resp.Checkpoint == nil {
		err = errors.New("rmswire: checkpoint response missing info")
	}
	return resp.Checkpoint, err
}

// Stats fetches daemon statistics.
func (c *Client) Stats() (*StatsInfo, error) { return statsOf(c.call(Request{Op: OpStats})) }

// Health fetches the daemon's readiness view.  It is served outside
// admission control, so it answers even when submits are being shed.
func (c *Client) Health() (*HealthInfo, error) { return healthOf(c.call(Request{Op: OpHealth})) }

// Metrics scrapes the daemon's metrics registry.  Like Health it is
// served outside admission control.
func (c *Client) Metrics() (*MetricsInfo, error) { return metricsOf(c.call(Request{Op: OpMetrics})) }

// Drain asks the daemon to shut down gracefully: stop accepting, finish
// in-flight requests, checkpoint, exit.  The acknowledgement only means
// the request was delivered; the daemon drains asynchronously.
func (c *Client) Drain() error {
	_, err := c.call(Request{Op: OpDrain})
	return err
}

// Fleet fetches the shard's fleet view (ring membership, per-peer gossip
// state).  It fails with a server error on a daemon not run with -fleet.
func (c *Client) Fleet() (*FleetInfo, error) {
	resp, err := c.call(Request{Op: OpFleet})
	if err == nil && resp.Fleet == nil {
		err = errors.New("rmswire: fleet response missing info")
	}
	return resp.Fleet, err
}
