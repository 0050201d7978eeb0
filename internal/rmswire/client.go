package rmswire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// DefaultDialTimeout bounds Dial: a dead or blackholed server address
// fails within this window instead of hanging indefinitely.
const DefaultDialTimeout = 5 * time.Second

// ErrClientBroken reports a client whose connection desynchronized: a
// read or write failed mid-frame, so the request/response stream can no
// longer be trusted and every subsequent op fails fast instead of
// decoding garbage.  Reconnect (or use a Retrier, which does) to recover.
var ErrClientBroken = errors.New("rmswire: client connection broken")

// Client is a synchronous RMS client over one connection.  It is safe for
// concurrent use; requests are serialised on the connection.
type Client struct {
	// Timeout bounds each op end to end (frame write + response read);
	// 0 disables deadlines.  Set before issuing requests.
	Timeout time.Duration

	// Budget, when positive, is propagated to the server as the request's
	// admission budget (Request.BudgetMS): a loaded server may hold the
	// request that long for an in-flight slot before shedding it.  Zero
	// omits the field, keeping frames byte-identical to older clients.
	Budget time.Duration

	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	broken  bool
	closing bool
}

// Dial connects to a gridtrustd server within DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects with an explicit dial timeout; 0 means no limit.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("rmswire: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends one request and decodes the response.  Any transport
// error marks the client broken: after a failed mid-frame read or write
// the stream may hold a partial frame, and resynchronizing a
// newline-delimited protocol is not possible in general.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return Response{}, ErrClientBroken
	}
	if c.Budget > 0 && req.BudgetMS == 0 {
		req.BudgetMS = c.Budget.Milliseconds()
	}
	if c.Timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := frame.Write(c.conn, req); err != nil {
		c.broken = true
		return Response{}, err
	}
	var resp Response
	if err := frame.Read(c.r, &resp); err != nil {
		c.broken = true
		return Response{}, err
	}
	if resp.ConnClosing {
		// The server announced it will close this connection after the
		// frame (drain, accept-time shed).  The response itself is valid,
		// but any further op on this client would fail with a transport
		// error — record that so callers redial instead.
		c.closing = true
	}
	switch resp.Status {
	case StatusError:
		return resp, fmt.Errorf("rmswire: server: %s", resp.Error)
	case StatusOverloaded:
		return resp, &OverloadedError{
			Reason:     resp.Error,
			RetryAfter: time.Duration(resp.RetryAfterMS) * time.Millisecond,
		}
	}
	return resp, nil
}

// RoundTrip sends one raw request frame and returns the decoded
// response.  Fleet forwarders use it to relay a client's request to the
// owning shard verbatim (Forwarded flag and all) and pass the owner's
// response back unchanged: for application errors and overload the
// returned Response is still populated alongside the non-nil error.
func (c *Client) RoundTrip(req Request) (Response, error) { return c.roundTrip(req) }

// Broken reports whether the connection desynchronized and the client
// must be replaced.
func (c *Client) Broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// Closing reports whether the server announced it will close this
// connection (ConnClosing on a response).  The last response was still
// valid; the next op would hit a dead connection, so callers should
// replace the client first.
func (c *Client) Closing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closing
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
	ids := make([]int, len(activities))
	for i, a := range activities {
		ids[i] = int(a)
	}
	resp, err := c.roundTrip(Request{
		Op:         OpSubmit,
		Client:     int(client),
		Activities: ids,
		RTL:        rtl.String(),
		EEC:        eec,
		IdemKey:    key,
		Now:        now,
	})
	if err != nil {
		return nil, err
	}
	if resp.Placement == nil {
		return nil, fmt.Errorf("rmswire: submit response missing placement")
	}
	return resp.Placement, nil
}

// Report feeds back the observed outcome (on [1,6]) of a placement.
func (c *Client) Report(placementID uint64, outcome, now float64) error {
	_, err := c.roundTrip(Request{
		Op: OpReport, PlacementID: placementID, Outcome: outcome, Now: now,
	})
	return err
}

// Checkpoint asks the daemon to snapshot its state and compact the
// write-ahead log.  It fails if the daemon runs without a journal.
func (c *Client) Checkpoint() (*CheckpointInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpCheckpoint})
	if err != nil {
		return nil, err
	}
	if resp.Checkpoint == nil {
		return nil, fmt.Errorf("rmswire: checkpoint response missing info")
	}
	return resp.Checkpoint, nil
}

// Stats fetches daemon statistics.
func (c *Client) Stats() (*StatsInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("rmswire: stats response missing stats")
	}
	return resp.Stats, nil
}

// Health fetches the daemon's readiness view.  It is served outside
// admission control, so it answers even when submits are being shed.
func (c *Client) Health() (*HealthInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpHealth})
	if err != nil {
		return nil, err
	}
	if resp.Health == nil {
		return nil, fmt.Errorf("rmswire: health response missing info")
	}
	return resp.Health, nil
}

// Metrics scrapes the daemon's metrics registry.  Like Health it is
// served outside admission control.
func (c *Client) Metrics() (*MetricsInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpMetrics})
	if err != nil {
		return nil, err
	}
	if resp.Metrics == nil {
		return nil, fmt.Errorf("rmswire: metrics response missing info")
	}
	return resp.Metrics, nil
}

// Drain asks the daemon to shut down gracefully: stop accepting, finish
// in-flight requests, checkpoint, exit.  The acknowledgement only means
// the request was delivered; the daemon drains asynchronously.
func (c *Client) Drain() error {
	_, err := c.roundTrip(Request{Op: OpDrain})
	return err
}

// Fleet fetches the shard's fleet view (ring membership, per-peer gossip
// state).  It fails with a server error on a daemon not run with -fleet.
func (c *Client) Fleet() (*FleetInfo, error) {
	resp, err := c.roundTrip(Request{Op: OpFleet})
	if err != nil {
		return nil, err
	}
	if resp.Fleet == nil {
		return nil, fmt.Errorf("rmswire: fleet response missing info")
	}
	return resp.Fleet, nil
}
