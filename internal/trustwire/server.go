package trustwire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// Server publishes a live TrustTable to replicas.  It serves any number
// of concurrent connections; each connection handles a stream of sync
// requests (a replica typically keeps one connection open and polls).
type Server struct {
	table *grid.TrustTable

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	served       atomic.Int64 // snapshot responses sent, for tests/metrics
	deltasServed atomic.Int64
}

// track registers a live connection; untrack removes it.  Close force-
// closes whatever is registered so handlers blocked in reads return.
func (s *Server) track(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.closed.Load() {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	delete(s.conns, c)
}

// NewServer wraps a table for serving.
func NewServer(table *grid.TrustTable) (*Server, error) {
	if table == nil {
		return nil, fmt.Errorf("trustwire: nil table")
	}
	return &Server{table: table}, nil
}

// Serve accepts connections on ln until Close.  It returns the accept
// error that terminated the loop (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	// Publish the listener under the conn lock: Close may run from
	// another goroutine before the first Accept returns.
	s.connMu.Lock()
	s.ln = ln
	closed := s.closed.Load()
	s.connMu.Unlock()
	if closed {
		_ = ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if !s.track(conn) {
			_ = conn.Close()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// ListenAndServe starts a TCP listener on addr (use "127.0.0.1:0" for an
// ephemeral port) and serves in a background goroutine, returning the
// bound address.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = s.Serve(ln) }()
	return ln.Addr(), nil
}

// Close stops accepting, force-closes live connections and waits for
// their handlers to exit.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.connMu.Lock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// SnapshotsServed reports how many full-snapshot responses have been sent.
func (s *Server) SnapshotsServed() int64 { return s.served.Load() }

// DeltasServed reports how many delta responses have been sent.
func (s *Server) DeltasServed() int64 { return s.deltasServed.Load() }

// handle serves one connection: a loop of request → response frames.
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	var (
		req  Request
		resp Response
	)
	in, out, w := requestCodec.Frame(&req), responseCodec.Frame(&resp), frame.Writer{W: conn}
	for {
		if err := frame.Read(r, in); err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				// Malformed frame: answer once, then drop the peer.
				resp = Response{Status: StatusError, Error: err.Error()}
				_ = w.Write(out)
			}
			return
		}
		resp = s.respond(req)
		if err := w.Write(out); err != nil {
			return
		}
	}
}

// respond computes the response to one sync request.
func (s *Server) respond(req Request) Response {
	if req.Op != OpSync {
		return Response{Status: StatusError, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	// An up-to-date poll is the common case (trust varies slowly): answer
	// it from the version alone and read entries only to send them.
	if v := s.table.Version(); v <= req.HaveVersion {
		return Response{Status: StatusCurrent, Version: v}
	}
	// A warm replica gets what was written since its version, a pure
	// overlay because the table never deletes entries; a cold one gets
	// everything.
	entries, version := s.table.Since(req.HaveVersion)
	status := StatusSnapshot
	if req.HaveVersion > 0 {
		status = StatusDelta
		s.deltasServed.Add(1)
	} else {
		s.served.Add(1)
	}
	return Response{Status: status, Version: version, Entries: wireEntries(entries)}
}
