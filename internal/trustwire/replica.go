package trustwire

import (
	"fmt"
	"sync"
	"time"

	"gridtrust/internal/frame"
)

// Replica maintains a local read-only copy of a remote trust table by
// polling a Server.  Schedulers at a remote Grid domain read the replica
// (a *grid.TrustTable) with zero network traffic on the hot path; the
// poll loop refreshes it in the background.  It is the sync protocol over
// one frame.Conn, which redials by itself after a failure.
type Replica struct {
	conn    *frame.Conn
	timeout time.Duration // bounds every Sync round trip (0 = unbounded)

	mu      sync.Mutex
	version uint64 // last applied table version
	have    uint64 // version the next poll claims: version, or 0 after a lost connection
	synced  int64  // snapshots applied
	local   *replicaTable
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
	return &Replica{conn: conn, timeout: timeout, local: newReplicaTable()}
}

// Close releases the connection for good.
func (c *Replica) Close() error { return c.conn.Close() }

// Version returns the last applied table version.
func (c *Replica) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// SnapshotsApplied reports how many snapshots this replica has installed.
func (c *Replica) SnapshotsApplied() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.synced
}

// Sync performs one poll round-trip: if the server is ahead, its entries
// replace the local copy atomically.  It reports whether new data was
// applied.
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
	fresh := newReplicaTable()
	switch resp.Status {
	case StatusCurrent:
		if c.have == c.version {
			return false, nil
		}
		// A cold poll answered "current": the server's table is empty,
		// and what we hold is a previous incarnation's.
	case StatusSnapshot:
		if err := applyEntries(fresh.table, resp.Entries); err != nil {
			return false, err
		}
	case StatusDelta:
		// Overlay the changed entries on a copy of the current local
		// table so readers still see atomic swaps.
		if err := copyTable(c.local, fresh, resp.Entries); err != nil {
			return false, err
		}
	case StatusError:
		return false, fmt.Errorf("trustwire: server error: %s", resp.Error)
	default:
		return false, fmt.Errorf("trustwire: unknown response status %q", resp.Status)
	}
	c.local = fresh
	c.version, c.have = resp.Version, resp.Version
	c.synced++
	return true, nil
}

// Poll runs Sync every interval until stop is closed, delivering any sync
// error to errs (non-blocking; errors are dropped if nobody listens).
// Errors do not end the loop: replication is anti-entropy, so the next
// tick retries on a new connection — a transient peer failure must never
// silently kill replication for the rest of the process lifetime.
func (c *Replica) Poll(interval time.Duration, stop <-chan struct{}, errs chan<- error) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			if _, err := c.Sync(); err != nil {
				select {
				case errs <- err:
				default:
				}
			}
		}
	}
}

// Table returns the current local copy for reading.  The returned table
// must be treated as read-only; it is replaced wholesale on the next
// applied snapshot, so a scheduler can safely keep using the instance it
// grabbed for one mapping pass.
func (c *Replica) Table() ReadOnlyTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local
}
