package trustwire

import (
	"fmt"
	"sync/atomic"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// Server publishes a live TrustTable to replicas.  It serves any number
// of concurrent connections; each connection handles a stream of sync
// requests (a replica typically keeps one connection open and polls).
// Serving and Close are internal/frame's (server.go), each read and
// write under frame.DefaultIdleTimeout.
type Server struct {
	*wire
	table *grid.TrustTable

	served       atomic.Int64 // snapshot responses sent, for tests/metrics
	deltasServed atomic.Int64
}

type wire = frame.Server[Request, Response]

// NewServer wraps a table for serving.
func NewServer(table *grid.TrustTable) (*Server, error) {
	if table == nil {
		return nil, fmt.Errorf("trustwire: nil table")
	}
	s := &Server{table: table}
	s.wire = frame.NewServer(requestCodec, responseCodec, frame.Handler[Request, Response]{
		Respond: func(_ []byte, req *Request, resp *Response, _ *frame.Line) ([]byte, bool) {
			*resp = s.respond(*req)
			return nil, false
		},
		Fail: func(err error, resp *Response) { *resp = Response{Status: StatusError, Error: err.Error()} },
	})
	return s, nil
}

// SnapshotsServed reports how many full-snapshot responses have been sent.
func (s *Server) SnapshotsServed() int64 { return s.served.Load() }

// DeltasServed reports how many delta responses have been sent.
func (s *Server) DeltasServed() int64 { return s.deltasServed.Load() }

// respond computes the response to one sync request.
func (s *Server) respond(req Request) Response {
	if req.Op != OpSync {
		return Response{Status: StatusError, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	// An up-to-date poll is the common case (trust varies slowly): answer
	// it from the version alone and read entries only to send them.  A
	// warm replica gets what was written since its version, a pure
	// overlay because the table never deletes entries; a cold one gets
	// everything.  Both come from one replica, so they agree.
	rep := s.table.Replica()
	version := rep.Version()
	if version <= req.HaveVersion {
		return Response{Status: StatusCurrent, Version: version}
	}
	entries := rep.Since(req.HaveVersion)
	status := StatusSnapshot
	if req.HaveVersion > 0 {
		status = StatusDelta
		s.deltasServed.Add(1)
	} else {
		s.served.Add(1)
	}
	return Response{Status: status, Version: version, Entries: wireEntries(entries)}
}
