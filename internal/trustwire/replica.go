package trustwire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"gridtrust/internal/frame"
)

// Replica maintains a local read-only copy of a remote trust table by
// polling a Server.  Schedulers at a remote Grid domain read the replica
// (a *grid.TrustTable) with zero network traffic on the hot path; the
// poll loop refreshes it in the background.
type Replica struct {
	mu      sync.Mutex
	conn    net.Conn
	r       *bufio.Reader
	version uint64
	synced  int64 // snapshots applied
	closed  bool

	// addr and timeout enable redial and per-round deadlines.  Both are
	// zero for NewReplica-wrapped connections, preserving the original
	// no-deadline, no-redial behavior on that path.
	addr    string
	timeout time.Duration

	local *replicaTable
}

// Dial connects a replica to a server address with no I/O deadlines.
func Dial(addr string) (*Replica, error) {
	return DialTimeout(addr, 0)
}

// DialTimeout connects a replica to a server address.  A non-zero
// timeout bounds the dial and every subsequent Sync round trip, and
// arms redial: after a transport error the broken conn is dropped and
// the next Sync dials afresh, so one black-holed round costs at most
// one timeout and the replica self-heals when the peer returns.
func DialTimeout(addr string, timeout time.Duration) (*Replica, error) {
	c := &Replica{
		addr:    addr,
		timeout: timeout,
		local:   newReplicaTable(),
	}
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// NewReplica wraps an established connection (e.g. one side of net.Pipe
// in tests).
func NewReplica(conn net.Conn) *Replica {
	return &Replica{
		conn:  conn,
		r:     bufio.NewReaderSize(conn, 64<<10),
		local: newReplicaTable(),
	}
}

// redialLocked (re)establishes the connection.  Callers hold mu, or own
// the Replica exclusively (DialTimeout).
func (c *Replica) redialLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.timeout)
	if err != nil {
		return fmt.Errorf("trustwire: dial %s: %w", c.addr, err)
	}
	c.conn = conn
	c.r = bufio.NewReaderSize(conn, 64<<10)
	return nil
}

// dropConnLocked discards a connection a transport error has made
// untrustworthy; the next Sync redials if an address is known.
func (c *Replica) dropConnLocked() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
		c.r = nil
	}
}

// Close releases the connection.
func (c *Replica) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	c.r = nil
	return err
}

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

// Sync performs one poll round-trip: if the server is ahead, the full
// snapshot replaces the local copy atomically.  It reports whether new
// data was applied.  With a timeout configured the whole round trip is
// deadline-bounded, and a transport error drops the connection so the
// next Sync redials — a partitioned peer costs one bounded round per
// poll, never a wedged goroutine.
func (c *Replica) Sync() (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, net.ErrClosed
	}
	if c.conn == nil {
		if c.addr == "" {
			return false, net.ErrClosed
		}
		if err := c.redialLocked(); err != nil {
			return false, err
		}
	}
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			c.dropConnLocked()
			return false, err
		}
	}
	if err := frame.Write(c.conn, Request{Op: OpSync, HaveVersion: c.version}); err != nil {
		c.dropConnLocked()
		return false, err
	}
	var resp Response
	if err := frame.Read(c.r, &resp); err != nil {
		c.dropConnLocked()
		return false, err
	}
	switch resp.Status {
	case StatusCurrent:
		return false, nil
	case StatusSnapshot:
		fresh := newReplicaTable()
		if err := applyEntries(fresh.table, resp.Entries); err != nil {
			return false, err
		}
		c.local = fresh
		c.version = resp.Version
		c.synced++
		return true, nil
	case StatusDelta:
		// Overlay the changed entries on a copy of the current local
		// table so readers still see atomic swaps.
		fresh := newReplicaTable()
		if err := copyTable(c.local, fresh, resp.Entries); err != nil {
			return false, err
		}
		c.local = fresh
		c.version = resp.Version
		c.synced++
		return true, nil
	case StatusError:
		return false, fmt.Errorf("trustwire: server error: %s", resp.Error)
	default:
		return false, fmt.Errorf("trustwire: unknown response status %q", resp.Status)
	}
}

// Poll runs Sync every interval until stop is closed, delivering any sync
// error to errs (non-blocking; errors are dropped if nobody listens).
// Errors do not end the loop: replication is anti-entropy, so the next
// tick retries (and, when the replica knows its address, redials) —
// a transient peer failure must never silently kill replication for the
// rest of the process lifetime.
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
