package frame

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultIdleTimeout is the deadline on each frame a Server reads and
// each reply it writes unless its owner chose another: a peer that
// neither sends a frame nor drains a reply for this long is reaped
// instead of pinning a handler goroutine.
const DefaultIdleTimeout = 2 * time.Minute

// Handler is what one protocol gives a Server.
type Handler[Req, Resp any] struct {
	// Respond answers *req.  It writes the reply into *resp and returns
	// a nil reply, or it returns the reply's line itself, which is
	// written as it stands; either way it reports whether the connection
	// closes once the reply is written.  line is the line *req was read
	// from, without its newline, when the codec's fast path took it (nil
	// otherwise); it lies in the connection's read buffer, valid until
	// Respond returns.  relay is the connection's own Line, for a reply
	// line to be built in or brought back into without an allocation.
	Respond func(line []byte, req *Req, resp *Resp, relay *Line) (reply []byte, closing bool)
	// Fail writes the one reply to a frame that could not be read
	// (malformed, or over MaxBytes); then the connection closes, since
	// the rest of the line is unread.
	Fail func(err error, resp *Resp)
	// Admit, if set, is asked about each accepted connection, given how
	// many are served; to refuse it, it writes the one frame it gets
	// into *resp and returns false.
	Admit func(open int, resp *Resp) bool
	// Sent, if set, is told of each request once its reply's write
	// returned, whether or not it succeeded.
	Sent func(req *Req)
	// Idle, if set, is read as each connection opens: the deadline on
	// its every read and write, 0 for none.  Unset, DefaultIdleTimeout.
	Idle func() time.Duration
}

// Server is the server side of a request/response frame stream: the
// listener, the accept loop, the open connections and one read → respond
// → write loop per connection, with one reader, one request, one reply,
// one relay line and one write buffer for all of a connection's frames,
// each read and each write under the idle deadline.
type Server[Req, Resp any] struct {
	in  *Codec[Req]
	out *Codec[Resp]
	h   Handler[Req, Resp]

	// mu guards ln and conns and orders closed against track, so wg is
	// added to only while the Server is open and Close's wait misses no
	// handler.
	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewServer returns a Server reading requests with in and writing
// replies with out.
func NewServer[Req, Resp any](in *Codec[Req], out *Codec[Resp], h Handler[Req, Resp]) *Server[Req, Resp] {
	if h.Idle == nil {
		h.Idle = func() time.Duration { return DefaultIdleTimeout }
	}
	return &Server[Req, Resp]{in: in, out: out, h: h, conns: make(map[net.Conn]struct{})}
}

// ListenAndServe binds addr (":0" picks a port) and serves it in the
// background, returning the bound address.
func (s *Server[Req, Resp]) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.ServeListener(ln), nil
}

// ServeListener accepts connections on ln in the background until ln or
// the Server is closed, and returns ln's address; it lets an owner
// interpose on the listener (fault injection, test harnesses).  On a
// closed Server it closes ln.
func (s *Server[Req, Resp]) ServeListener(ln net.Listener) net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		_ = ln.Close()
	} else {
		s.ln = ln
		go s.accept(ln)
	}
	return ln.Addr()
}

func (s *Server[Req, Resp]) accept(ln net.Listener) {
	var refusal Resp
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if s.h.Admit != nil && !s.h.Admit(s.Conns(), &refusal) {
			expire(s.h.Idle(), conn.SetWriteDeadline)
			_ = Write(conn, s.out.Frame(&refusal))
			_ = conn.Close()
		} else if s.track(conn) {
			go s.handle(conn)
		}
	}
}

// ServeConn serves one connection that is already open (one side of a
// net.Pipe in tests) until it ends or the Server is closed.
func (s *Server[Req, Resp]) ServeConn(conn net.Conn) {
	if s.track(conn) {
		s.handle(conn)
	}
}

// track registers conn for a handler, or closes it once the Server is.
func (s *Server[Req, Resp]) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		_ = conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	s.wg.Add(1)
	return true
}

// handle serves one tracked connection's request stream, then forgets
// and closes it.
func (s *Server[Req, Resp]) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
		s.wg.Done()
	}()
	// A frame is parsed out of r's buffer into req, and the reply is
	// encoded, or its line copied, over the last one in buf.
	var (
		req   Req
		resp  Resp
		relay Line
		buf   []byte
	)
	r, in, out, idle := newReader(conn), s.in.Frame(&req), s.out.Frame(&resp), s.h.Idle()
	for {
		expire(idle, conn.SetReadDeadline)
		line, err := readFrame(r, in)
		if err != nil {
			// A stream that failed (EOF, a deadline, a reset, Close) gets
			// no reply: its peer would read it as the next request's.
			var failed net.Error
			if !errors.Is(err, io.EOF) && !errors.As(err, &failed) {
				expire(idle, conn.SetWriteDeadline)
				s.h.Fail(err, &resp)
				_, _ = writeOver(buf, conn, out)
			}
			return
		}
		reply, closing := s.h.Respond(line, &req, &resp, &relay)
		expire(idle, conn.SetWriteDeadline)
		if reply != nil {
			buf = append(append(buf[:0], reply...), '\n')
			err = write(conn, buf)
		} else {
			buf, err = writeOver(buf, conn, out)
		}
		if s.h.Sent != nil {
			s.h.Sent(&req)
		}
		if err != nil || closing {
			return
		}
	}
}

// expire sets a deadline idle from now, if idle is positive.
func expire(idle time.Duration, set func(time.Time) error) {
	if idle > 0 {
		_ = set(time.Now().Add(idle))
	}
}

// Conns reports how many connections are being served.
func (s *Server[Req, Resp]) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// StopAccepting closes the listener; the open connections are served on
// until Close.
func (s *Server[Req, Resp]) StopAccepting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		_ = s.ln.Close()
	}
}

// Close stops accepting, force-closes every open connection and waits
// for their handlers to return.
func (s *Server[Req, Resp]) Close() {
	s.mu.Lock()
	if !s.closed.Swap(true) {
		if s.ln != nil {
			_ = s.ln.Close()
		}
		for c := range s.conns {
			_ = c.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
}
