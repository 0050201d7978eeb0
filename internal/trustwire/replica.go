package trustwire

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// Replica maintains a local read-only copy of a remote trust table by
// polling a Server.  Schedulers at a remote Grid domain read the replica
// (an immutable *grid.TableReplica) with zero network traffic and no lock
// on the hot path; the poll loop refreshes it in the background.  It is
// the sync protocol over one frame.Conn, which redials by itself after a
// failure.
type Replica struct {
	conn    *frame.Conn
	timeout time.Duration // bounds every Sync round trip (0 = unbounded)

	local  atomic.Pointer[grid.TableReplica] // last applied table, published whole
	synced atomic.Int64                      // responses applied

	mu   sync.Mutex // serialises Sync
	have uint64     // version the next poll claims: local's, or 0 after a lost connection
}

// Dial connects a replica to a server address with no I/O deadlines.
func Dial(addr string) (*Replica, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects a replica to a server address.  A non-zero
// timeout bounds the dial and every subsequent Sync round trip: one
// black-holed round costs at most one timeout, and the replica
// self-heals when the peer returns.
func DialTimeout(addr string, timeout time.Duration) (*Replica, error) {
	conn := frame.NewConn(addr, timeout)
	if err := conn.Dial(); err != nil {
		return nil, fmt.Errorf("trustwire: %w", err)
	}
	return NewReplica(conn, timeout), nil
}

// NewReplica polls over conn, which dials when first used, with every
// round trip bounded by timeout.
func NewReplica(conn *frame.Conn, timeout time.Duration) *Replica {
	c := &Replica{conn: conn, timeout: timeout}
	c.local.Store(new(grid.TableReplica))
	return c
}

// Close releases the connection for good.
func (c *Replica) Close() error { return c.conn.Close() }

// Version returns the last applied table version.
func (c *Replica) Version() uint64 { return c.local.Load().Version() }

// SnapshotsApplied reports how many snapshots this replica has installed.
func (c *Replica) SnapshotsApplied() int64 { return c.synced.Load() }

// Sync performs one poll round-trip: if the server is ahead, a new local
// copy with its entries replaces the old one.  It reports whether new
// data was applied.  Only Sync takes the lock, so readers of Table and
// Version never wait behind a round trip in flight.
//
// After any lost connection the next poll is a cold one (have_version 0).
// The server on the new connection may be a restarted one whose version
// counter began again: comparing its versions with ours would call a
// different, lower-numbered table "current" for ever.  Asking for
// everything is the anti-entropy path — whatever diverged is healed by
// the next full snapshot.
func (c *Replica) Sync() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	req, resp := Request{Op: OpSync, HaveVersion: c.have}, Response{}
	if d, err := c.conn.RoundTrip(c.timeout, requestCodec.Frame(&req), responseCodec.Frame(&resp)); d != frame.Answered {
		c.have = 0
		return false, err
	}
	local := c.local.Load()
	var base *grid.TableReplica // a snapshot starts from an empty table
	switch resp.Status {
	case StatusCurrent:
		if c.have == local.Version() {
			return false, nil
		}
		// A cold poll answered "current": the server's table is empty,
		// and what we hold is a previous incarnation's.
	case StatusSnapshot:
	case StatusDelta:
		base = local
	case StatusError:
		return false, fmt.Errorf("trustwire: server error: %s", resp.Error)
	default:
		return false, fmt.Errorf("trustwire: unknown response status %q", resp.Status)
	}
	next, err := applyEntries(base, resp.Entries, resp.Version)
	if err != nil {
		return false, err
	}
	c.local.Store(next)
	c.have = resp.Version
	c.synced.Add(1)
	return true, nil
}

// Poll runs Sync every interval until stop is closed, handing each round's
// error (nil on success) to round on the polling goroutine, so round sees
// Table as that round left it.  Errors do not end the loop: replication is
// anti-entropy, so the next tick retries on a new connection — a
// transient peer failure must never silently kill replication for the
// rest of the process lifetime.
func (c *Replica) Poll(interval time.Duration, stop <-chan struct{}, round func(error)) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			_, err := c.Sync()
			round(err)
		}
	}
}

// Table returns the current local copy for reading.  It is immutable and
// replaced wholesale by the next applied response, so a scheduler can
// keep using the instance it grabbed for one mapping pass.
func (c *Replica) Table() *grid.TableReplica { return c.local.Load() }
