package frame

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Delivery says how far one round trip got.  It is the whole of what a
// client can know about a request it sent, and every retry, relay and
// failover decision above this package is made from it.
type Delivery int

const (
	// Answered: a reply frame was read and decoded.
	Answered Delivery = iota
	// NotSent: there was no connection to write to and none could be
	// dialled, or the request would not encode.  Not one byte of the
	// request left this process, so the peer cannot have acted on it.
	NotSent
	// MaybeSent: writing had begun when the round trip failed.  The peer
	// may have executed the request with only the reply lost.
	MaybeSent
)

func (d Delivery) String() string {
	switch d {
	case Answered:
		return "answered"
	case NotSent:
		return "not sent"
	default:
		return "maybe sent"
	}
}

// ErrClosed reports a round trip on a Conn that was closed, or that lost
// a wrapped connection it has no address to replace.
var ErrClosed = errors.New("frame: connection closed")

// Conn is the client side of a request/response frame stream: one request
// out, one reply back, one at a time.  It dials on first use, and after
// any I/O error it discards the connection — a stream that failed
// mid-frame cannot be resynchronised — and dials a new one on the next
// use.  Safe for concurrent use; round trips are serialised.
type Conn struct {
	addr        string
	dialTimeout time.Duration

	// rt serialises round trips, dial included.  mu guards the fields
	// below and is never held across I/O, so Close and Drop interrupt a
	// round trip in flight instead of queueing behind it.
	rt     sync.Mutex
	mu     sync.Mutex
	conn   net.Conn
	r      *bufio.Reader
	closed bool

	wbuf []byte // the one encode buffer, under rt

	dials, dialErrors atomic.Uint64
}

// NewConn returns a connection to addr that dials on first use, each dial
// bounded by dialTimeout (0 = unbounded).
func NewConn(addr string, dialTimeout time.Duration) *Conn {
	return &Conn{addr: addr, dialTimeout: dialTimeout}
}

// Wrap adopts an established connection (one side of a net.Pipe in
// tests).  With no address to redial, it is finished once that
// connection fails.
func Wrap(conn net.Conn) *Conn {
	return &Conn{conn: conn, r: newReader(conn)}
}

// Dial connects now if not connected, so a caller can learn at start-up
// that the address is dead.
func (c *Conn) Dial() error {
	c.rt.Lock()
	defer c.rt.Unlock()
	_, _, err := c.live()
	return err
}

// Dials reports how many dials were attempted and how many of them failed.
func (c *Conn) Dials() (attempted, failed uint64) {
	return c.dials.Load(), c.dialErrors.Load()
}

// live returns the current connection, dialling one if there is none.
// The caller holds rt.
func (c *Conn) live() (net.Conn, *bufio.Reader, error) {
	c.mu.Lock()
	conn, r, closed := c.conn, c.r, c.closed
	c.mu.Unlock()
	if closed || conn == nil && c.addr == "" {
		return nil, nil, ErrClosed
	}
	if conn != nil {
		return conn, r, nil
	}
	c.dials.Add(1)
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		c.dialErrors.Add(1)
		return nil, nil, fmt.Errorf("frame: dial %s: %w", c.addr, err)
	}
	r = newReader(conn)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = conn.Close()
		return nil, nil, ErrClosed
	}
	c.conn, c.r = conn, r
	c.mu.Unlock()
	return conn, r, nil
}

// RoundTrip writes req as one frame and reads one frame into resp, the
// whole exchange bounded by timeout (0 = unbounded), and reports how far
// it got.  The error is nil exactly when the delivery is Answered.  A
// relay passes one Line as both: its request is written before the
// reply is read, and the reply is copied out of this Conn's buffer
// before another round trip can reuse it.
func (c *Conn) RoundTrip(timeout time.Duration, req, resp Frame) (Delivery, error) {
	c.rt.Lock()
	defer c.rt.Unlock()
	data, err := encode(c.wbuf, req)
	c.wbuf = data
	if err != nil {
		return NotSent, err
	}
	conn, r, err := c.live()
	if err != nil {
		return NotSent, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(timeout))
	}
	if err = write(conn, data); err == nil {
		err = Read(r, resp)
	}
	if err != nil {
		c.discard(conn)
		return MaybeSent, err
	}
	if timeout > 0 {
		_ = conn.SetDeadline(time.Time{})
	}
	return Answered, nil
}

// discard closes conn and, if it is still the current connection,
// forgets it, so the next use dials.
func (c *Conn) discard(conn net.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.r = nil, nil
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// Drop discards the current connection, if any: the next use dials.  It
// is for a peer that announced it is about to hang up.
func (c *Conn) Drop() {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn != nil {
		c.discard(conn)
	}
}

// Close ends the Conn for good; a round trip in flight fails.
func (c *Conn) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.conn, c.r, c.closed = nil, nil, true
	c.mu.Unlock()
	if conn == nil {
		return nil
	}
	return conn.Close()
}
