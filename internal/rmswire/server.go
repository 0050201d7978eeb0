package rmswire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/wal"
)

// DefaultIdleTimeout is the per-connection read/write deadline applied
// when Server.IdleTimeout is zero: a client that neither sends a frame
// nor drains a response for this long is reaped instead of pinning a
// handler goroutine forever.
const DefaultIdleTimeout = 2 * time.Minute

// DefaultRetryAfter is the backoff hint carried on StatusOverloaded
// responses when Server.RetryAfter is zero.
const DefaultRetryAfter = 50 * time.Millisecond

// Server exposes one TRMS over the wire.  Its ledger keeps placements by
// id so outcome reports can reference them across connections.
type Server struct {
	trms *core.TRMS

	// IdleTimeout is the per-connection read/write deadline; 0 selects
	// DefaultIdleTimeout, negative disables deadlines.  Set before
	// ListenAndServe.
	IdleTimeout time.Duration

	// MaxConns bounds concurrently served connections; a connection over
	// the limit is answered with one StatusOverloaded frame and closed.
	// 0 means unlimited.  Set before ListenAndServe.
	MaxConns int

	// MaxInFlight bounds concurrently executing requests across all
	// connections.  A request that cannot be admitted within its budget
	// (Request.BudgetMS) is shed with StatusOverloaded; nothing about it
	// is applied or journalled.  0 means unlimited.  Set before
	// ListenAndServe.
	MaxInFlight int

	// RetryAfter overrides the backoff hint on StatusOverloaded
	// responses; 0 selects DefaultRetryAfter.
	RetryAfter time.Duration

	// Router, when non-nil, sees every submit and report before local
	// execution (after admission, outside the journal lock) and may
	// execute it on another shard.  Requests already marked Forwarded
	// bypass it, so rings that momentarily disagree cannot loop a
	// request.  Set before ListenAndServe.
	Router Router

	// FleetStatus, when non-nil, serves the fleet op (admission-free,
	// like health).  Set before ListenAndServe.
	FleetStatus func() *FleetInfo

	ln     net.Listener
	wg     sync.WaitGroup
	closed atomic.Bool

	// tokens is the admission semaphore (nil when MaxInFlight == 0);
	// inflight counts executing requests for health and drain even when
	// admission is unlimited.
	tokens   chan struct{}
	inflight atomic.Int64
	draining atomic.Bool
	drainReq chan struct{}

	// degraded is the daemon-level fail-stop latch: once the journal
	// reports a WAL fail-stop (a failed write or fsync — durability can
	// no longer be promised) every subsequent mutation is refused and
	// health reports "degraded".  Reads, health, metrics and drain keep
	// working so the operator can inspect and retire the shard.
	// degradedCause holds the first error, for health and logs.
	degraded      atomic.Bool
	degradedCause atomic.Value // string

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// books are the placements, idempotency keys and id counter the
	// requests change and the journal replays (ledger.go).
	books *ledger

	// jmu serialises operations against checkpoints: handlers that
	// mutate the TRMS and append to the journal hold it for reading,
	// Checkpoint holds it for writing so the captured state matches the
	// journal position exactly.  journal and compactEvery are set before
	// serving and read without it; lastBoundary, the last checkpoint
	// attempt's journal position, is under it.
	jmu          sync.RWMutex
	journal      *wal.Log
	compactEvery int
	lastBoundary uint64

	// start anchors uptime on the monotonic clock; startUnixNanos is the
	// wall-clock instance stamp reported alongside it.
	start          time.Time
	startUnixNanos int64

	// reg is the metrics registry; sm caches the hot-path handles so
	// request handling never takes the registry lock.
	reg *metrics.Registry
	sm  serverMetrics
}

// Router decides whether a request belongs elsewhere.  Route returns
// (response, true) when it executed the request on another shard — the
// response is relayed to the client verbatim — or (zero, false) when
// the request is local (including deliberate failover after the owner
// proved unreachable).  Implementations must not call back into the
// server they are attached to.
type Router interface {
	Route(req Request) (Response, bool)
}

// serverMetrics caches registry handles used on the request path.
type serverMetrics struct {
	connsAccepted   *metrics.Counter
	shedConnLimit   *metrics.Counter
	shedDraining    *metrics.Counter
	shedInflight    *metrics.Counter
	shedIdemPending *metrics.Counter
	shedReportPend  *metrics.Counter
	overloadReplies *metrics.Counter
	requests        *metrics.Counter
	submitOK        *metrics.Counter
	submitErr       *metrics.Counter
	reportOK        *metrics.Counter
	reportErr       *metrics.Counter
	reportReplays   *metrics.Counter
	placements      *metrics.Counter
	idemHits        *metrics.Counter
	refusedDegraded *metrics.Counter
	autoCkptErrs    *metrics.Counter
	opSubmit        *metrics.Histogram
	opReport        *metrics.Histogram
	opStats         *metrics.Histogram
}

// NewServer wraps a TRMS.  The server does not own the TRMS: callers
// close both, server first.
func NewServer(trms *core.TRMS) (*Server, error) {
	if trms == nil {
		return nil, fmt.Errorf("rmswire: nil TRMS")
	}
	now := time.Now()
	s := &Server{
		trms:           trms,
		conns:          make(map[net.Conn]struct{}),
		books:          newLedger(trms),
		drainReq:       make(chan struct{}, 1),
		start:          now,
		startUnixNanos: now.UnixNano(),
		reg:            metrics.NewRegistry(),
	}
	s.sm = serverMetrics{
		connsAccepted:   s.reg.Counter(MetricConnsAccepted),
		shedConnLimit:   s.reg.Counter(MetricShedConnLimit),
		shedDraining:    s.reg.Counter(MetricShedDraining),
		shedInflight:    s.reg.Counter(MetricShedInflight),
		shedIdemPending: s.reg.Counter(MetricShedIdemPending),
		shedReportPend:  s.reg.Counter(MetricShedReportPending),
		overloadReplies: s.reg.Counter(MetricOverloadReplies),
		requests:        s.reg.Counter(MetricRequests),
		submitOK:        s.reg.Counter(MetricSubmitOK),
		submitErr:       s.reg.Counter(MetricSubmitErr),
		reportOK:        s.reg.Counter(MetricReportOK),
		reportErr:       s.reg.Counter(MetricReportErr),
		reportReplays:   s.reg.Counter(MetricReportReplays),
		placements:      s.reg.Counter(MetricPlacements),
		idemHits:        s.reg.Counter(MetricIdemHits),
		refusedDegraded: s.reg.Counter(MetricRefusedDegraded),
		autoCkptErrs:    s.reg.Counter(MetricAutoCheckpointErrors),
		opSubmit:        s.reg.Histogram(MetricOpSubmitNS),
		opReport:        s.reg.Histogram(MetricOpReportNS),
		opStats:         s.reg.Histogram(MetricOpStatsNS),
	}
	return s, nil
}

// Metrics exposes the server's registry so the owning process can hang
// its own instruments (e.g. WAL batch sizes) off the same scrape.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetNextIDBase raises the placement-id counter to at least base,
// namespacing this server's ids in a fleet (shard k passes
// k << ShardIDShift).  Call before serving.  Shard 0's base is zero,
// which keeps a single-shard fleet's ids (and hence its WAL)
// byte-identical to a non-fleet daemon's.
func (s *Server) SetNextIDBase(base uint64) {
	// restore only raises the counter, and the snapshot holds no records.
	_ = s.books.restore(&daemonSnapshot{NextID: base})
}

// ListenAndServe binds addr and serves in the background, returning the
// bound address.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return s.ServeListener(ln), nil
}

// ServeListener serves on an already-bound listener in the background,
// returning its address.  It exists so owners can interpose on the
// listener (fault injection, TLS, test harnesses) before the server
// starts accepting.
func (s *Server) ServeListener(ln net.Listener) net.Addr {
	if s.MaxInFlight > 0 {
		s.tokens = make(chan struct{}, s.MaxInFlight)
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr()
}

// degrade latches the daemon into fail-stop refusal of mutations.  The
// first cause wins; later calls are no-ops.
func (s *Server) degrade(cause error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedCause.Store(cause.Error())
	}
}

// Degraded reports whether the daemon has latched into fail-stop mode,
// and the cause.
func (s *Server) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	cause, _ := s.degradedCause.Load().(string)
	return true, cause
}

// rejectConn answers an unadmitted connection with a single overloaded
// frame and closes it, so the peer learns "retry later" instead of seeing
// a bare RST.
func (s *Server) rejectConn(conn net.Conn, reason string) {
	if t := s.idleTimeout(); t > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(t))
	}
	resp := s.overloaded(reason)
	resp.ConnClosing = true
	_ = frame.Write(conn, responseCodec.Frame(&resp))
	_ = conn.Close()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			s.sm.shedDraining.Inc()
			s.rejectConn(conn, "draining")
			continue
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			_ = conn.Close()
			return
		}
		if s.MaxConns > 0 && len(s.conns) >= s.MaxConns {
			s.connMu.Unlock()
			s.sm.shedConnLimit.Inc()
			s.rejectConn(conn, fmt.Sprintf("connection limit %d reached", s.MaxConns))
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.sm.connsAccepted.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
				_ = conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, force-closes connections and waits for handlers.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

// Shutdown drains the server gracefully: it stops accepting, sheds every
// request that arrives after the call with StatusOverloaded("draining"),
// and waits up to timeout for already-admitted requests to finish before
// force-closing the remaining connections.  It returns true if all
// in-flight work completed inside the deadline.  Callers holding a
// journal typically take a final Checkpoint afterwards.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.draining.Store(true)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	deadline := time.Now().Add(timeout)
	clean := true
	for s.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			clean = false
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	return clean
}

// DrainRequested is signalled (once, non-blocking) when a client issues
// the drain op; the process owning the server decides how to shut down.
func (s *Server) DrainRequested() <-chan struct{} { return s.drainReq }

// retryAfter resolves the overload backoff hint.
func (s *Server) retryAfter() time.Duration {
	if s.RetryAfter > 0 {
		return s.RetryAfter
	}
	return DefaultRetryAfter
}

// overloaded builds the typed retryable rejection frame.  Every
// overloaded reply the server produces goes through here, so the
// counter is the exact number of overloaded frames written (modulo
// frames lost to a peer that hung up first — see MetricShedConnLimit).
func (s *Server) overloaded(reason string) Response {
	s.sm.overloadReplies.Inc()
	return Response{
		Status:       StatusOverloaded,
		Error:        reason,
		RetryAfterMS: s.retryAfter().Milliseconds(),
	}
}

// acquire admits one request, waiting at most budget for an in-flight
// slot.  It reports false when the request must be shed; nothing was
// applied.  release undoes a successful acquire.
func (s *Server) acquire(budget time.Duration) bool {
	if s.tokens == nil {
		s.inflight.Add(1)
		return true
	}
	select {
	case s.tokens <- struct{}{}:
		s.inflight.Add(1)
		return true
	default:
	}
	if budget <= 0 {
		return false
	}
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case s.tokens <- struct{}{}:
		s.inflight.Add(1)
		return true
	case <-timer.C:
		return false
	}
}

func (s *Server) release() {
	s.inflight.Add(-1)
	if s.tokens != nil {
		<-s.tokens
	}
}

// idleTimeout resolves the effective per-connection deadline.
func (s *Server) idleTimeout() time.Duration {
	if s.IdleTimeout == 0 {
		return DefaultIdleTimeout
	}
	if s.IdleTimeout < 0 {
		return 0
	}
	return s.IdleTimeout
}

// handle serves one connection's request stream.  Each frame read and
// each response write runs under the idle deadline; an oversized frame is
// answered with a typed error before the connection closes (the rest of
// the line is unread, so the stream cannot be resynchronised).
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	timeout := s.idleTimeout()
	deadline := func(set func(time.Time) error) {
		if timeout > 0 {
			_ = set(time.Now().Add(timeout))
		}
	}
	// One request, one reply and one encode buffer serve the whole
	// stream: a frame is parsed out of r's buffer into req and the reply
	// is encoded over the last one.
	var (
		req  Request
		resp Response
	)
	in, out, w := requestCodec.Frame(&req), responseCodec.Frame(&resp), frame.Writer{W: conn}
	for {
		deadline(conn.SetReadDeadline)
		if err := frame.Read(r, in); err != nil {
			if !errors.Is(err, io.EOF) && !s.closed.Load() {
				deadline(conn.SetWriteDeadline)
				resp = Response{Status: StatusError, Error: err.Error()}
				_ = w.Write(out)
			}
			return
		}
		resp = s.respond(req)
		// A draining server finishes the request it already answered and
		// then closes the stream so the client reconnects elsewhere; say
		// so in the frame so the client redials instead of discovering a
		// dead connection on its next request.
		closing := s.draining.Load()
		if closing {
			resp.ConnClosing = true
		}
		deadline(conn.SetWriteDeadline)
		if err := w.Write(out); err != nil {
			return
		}
		if closing {
			return
		}
	}
}

// respond executes one request against the TRMS.  Mutating ops run under
// the journal read-lock so checkpoints observe a quiescent daemon.
// Health and drain bypass admission entirely — they must answer precisely
// when the daemon is overloaded or draining.
func (s *Server) respond(req Request) Response {
	switch req.Op {
	case OpHealth:
		return s.handleHealth()
	case OpMetrics:
		return s.handleMetrics()
	case OpDrain:
		return s.handleDrain()
	case OpCheckpoint:
		return s.handleCheckpoint()
	case OpFleet:
		return s.handleFleet()
	}
	s.sm.requests.Inc()
	if s.draining.Load() {
		s.sm.shedDraining.Inc()
		return s.overloaded("draining")
	}
	// Fail-stop: a daemon whose journal can no longer promise durability
	// refuses every mutation outright (StatusError, not overloaded — a
	// retry here can never succeed; the client must go elsewhere).
	// Reads still serve.
	if deg, cause := s.Degraded(); deg && (req.Op == OpSubmit || req.Op == OpReport) {
		s.sm.refusedDegraded.Inc()
		return Response{Status: StatusError,
			Error: fmt.Sprintf("daemon degraded (journal fail-stop): %s", cause)}
	}
	if !s.acquire(time.Duration(req.BudgetMS) * time.Millisecond) {
		s.sm.shedInflight.Inc()
		return s.overloaded(fmt.Sprintf("in-flight limit %d reached", s.MaxInFlight))
	}
	defer s.release()
	// Fleet routing: a mis-routed submit or report is executed on its
	// owning shard and the owner's response relayed verbatim.  Forwards
	// hold an in-flight slot (they are real work this shard performs)
	// but never touch the journal lock — nothing local is mutated.
	// A submit key already in the local idempotency table is replayed
	// here even if the ring says a peer owns it: the key was placed on
	// this shard (typically by failover while the owner was down), and
	// re-forwarding its retry would double-place it at the owner.
	if s.Router != nil && !req.Forwarded && (req.Op == OpSubmit || req.Op == OpReport) {
		if req.Op != OpSubmit || req.IdemKey == "" || !s.books.known(req.IdemKey) {
			if resp, handled := s.Router.Route(req); handled {
				return resp
			}
		}
	}
	began := time.Now()
	s.jmu.RLock()
	var resp Response
	switch req.Op {
	case OpSubmit:
		resp = s.handleSubmit(req)
		s.sm.opSubmit.Observe(uint64(time.Since(began)))
	case OpReport:
		resp = s.handleReport(req)
		s.sm.opReport.Observe(uint64(time.Since(began)))
	case OpStats:
		resp = s.handleStats()
		s.sm.opStats.Observe(uint64(time.Since(began)))
	default:
		resp = Response{Status: StatusError, Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	s.jmu.RUnlock()
	s.maybeCompact()
	return resp
}

// handleFleet serves the shard's fleet view, admission-free like health
// so fleet tooling can observe gossip state on a loaded shard.
func (s *Server) handleFleet() Response {
	if s.FleetStatus == nil {
		return Response{Status: StatusError, Error: "daemon is not running in fleet mode"}
	}
	return Response{Status: StatusOK, Fleet: s.FleetStatus()}
}

// handleHealth reports readiness without touching admission: probes see a
// truthful view even while the daemon sheds or drains.
func (s *Server) handleHealth() Response {
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	open, idem := s.books.counts()
	topo := s.trms.Topology()
	h := &HealthInfo{
		Status:           "ok",
		Draining:         s.draining.Load(),
		Conns:            conns,
		MaxConns:         s.MaxConns,
		InFlight:         int(s.inflight.Load()),
		MaxInFlight:      s.MaxInFlight,
		OpenPlacements:   open,
		Placed:           s.trms.Placed(),
		IdemEntries:      idem,
		UptimeMS:         time.Since(s.start).Milliseconds(),
		StartUnixNanos:   s.startUnixNanos,
		MetricsSeq:       s.reg.Seq(),
		TopologyMachines: len(topo.Machines()),
		TopologyClients:  len(topo.Clients()),
	}
	if h.Draining {
		h.Status = "draining"
	}
	if deg, cause := s.Degraded(); deg {
		h.Status = "degraded"
		h.Degraded = true
		h.DegradedCause = cause
	}
	if s.journal != nil {
		h.Journal = true
		h.JournalNextSeq = s.journal.NextSeq()
		h.JournalSegments = s.journal.Stats().Segments
	}
	return Response{Status: StatusOK, Health: h}
}

// handleMetrics scrapes the registry.  Like health it bypasses admission
// — an overloaded daemon must still be observable.  Counters and
// histograms come from the registry; point-in-time gauges (connection
// and queue depths, durable placement/idempotency anchors, WAL totals)
// are read at scrape time and injected into the snapshot, keeping the
// request hot path free of gauge bookkeeping.
func (s *Server) handleMetrics() Response {
	snap := s.reg.Snapshot()
	if snap.Gauges == nil {
		snap.Gauges = make(map[string]int64)
	}
	s.connMu.Lock()
	snap.Gauges[MetricConns] = int64(len(s.conns))
	s.connMu.Unlock()
	open, idem := s.books.counts()
	snap.Gauges[MetricOpenPlacements] = int64(open)
	snap.Gauges[MetricIdemEntries] = int64(idem)
	snap.Gauges[MetricInFlight] = s.inflight.Load()
	snap.Gauges[MetricPlaced] = int64(s.trms.Placed())
	if s.draining.Load() {
		snap.Gauges[MetricDraining] = 1
	} else {
		snap.Gauges[MetricDraining] = 0
	}
	if s.degraded.Load() {
		snap.Gauges[MetricDegraded] = 1
	} else {
		snap.Gauges[MetricDegraded] = 0
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Counters[MetricWALAppends] = js.Appends
		snap.Counters[MetricWALSyncs] = js.Syncs
		snap.Counters[MetricWALRotations] = js.Rotations
		snap.Gauges[MetricWALSegments] = int64(js.Segments)
		snap.Gauges[MetricJournalNextSeq] = int64(s.journal.NextSeq())
	}
	return Response{Status: StatusOK, Metrics: &MetricsInfo{
		Snapshot:       *snap,
		UptimeMS:       time.Since(s.start).Milliseconds(),
		StartUnixNanos: s.startUnixNanos,
	}}
}

// handleDrain acknowledges the request and signals the process owner; the
// actual drain (Shutdown + final checkpoint) is the owner's call, because
// only it knows whether to exit afterwards.
func (s *Server) handleDrain() Response {
	select {
	case s.drainReq <- struct{}{}:
	default:
	}
	return Response{Status: StatusOK}
}

func (s *Server) handleCheckpoint() Response {
	info, err := s.Checkpoint()
	if err != nil {
		return Response{Status: StatusError, Error: err.Error()}
	}
	return Response{Status: StatusOK, Checkpoint: info}
}

// handleSubmit places one task.  A key already acknowledged replays the
// original placement; a key whose first attempt is executing is shed as
// retryable rather than raced into a double-place.
func (s *Server) handleSubmit(req Request) Response {
	if req.IdemKey != "" {
		switch rec, c := s.books.reserveKey(req.IdemKey); c {
		case answered:
			s.sm.idemHits.Inc()
			s.sm.submitOK.Inc()
			return Response{Status: StatusOK, Placement: rec.placementInfo()}
		case inFlight:
			s.sm.shedIdemPending.Inc()
			return s.overloaded(fmt.Sprintf("submit with idempotency key %q in flight", req.IdemKey))
		}
		defer s.books.releaseKey(req.IdemKey)
	}
	toa, err := activitiesToToA(req.Activities)
	if err != nil {
		s.sm.submitErr.Inc()
		return Response{Status: StatusError, Error: err.Error()}
	}
	rtl, err := grid.ParseLevel(req.RTL)
	if err != nil {
		s.sm.submitErr.Inc()
		return Response{Status: StatusError, Error: err.Error()}
	}
	p, err := s.trms.Submit(core.Task{
		Client: grid.ClientID(req.Client),
		ToA:    toa,
		RTL:    rtl,
		EEC:    req.EEC,
	}, req.Now)
	if err != nil {
		s.sm.submitErr.Inc()
		return Response{Status: StatusError, Error: err.Error()}
	}
	id := s.books.open(p, toa)
	s.sm.placements.Inc()
	rec := placeRecord(id, p, toa, req.Now)
	rec.IdemKey = req.IdemKey
	if err := s.journalAppend(rec); err != nil {
		s.sm.submitErr.Inc()
		return Response{Status: StatusError,
			Error: fmt.Sprintf("placement %d applied but not journalled: %v", id, err)}
	}
	s.books.ack(rec)
	s.sm.submitOK.Inc()
	// Answered from the record, so a submit and its replay are the same
	// bytes by construction.
	return Response{Status: StatusOK, Placement: rec.placementInfo()}
}

// handleReport applies one outcome report, exactly once per placement,
// in RPT-ORDER (ledger.go, DESIGN.md §12).
func (s *Server) handleReport(req Request) Response {
	id := req.PlacementID
	op, c := s.books.reserveReport(id)
	switch c {
	case inFlight:
		s.sm.shedReportPend.Inc()
		return s.overloaded(fmt.Sprintf("report for placement %d in flight", id))
	case answered:
		s.sm.reportReplays.Inc()
		return Response{Status: StatusOK, Replayed: true}
	case unknown:
		s.sm.reportErr.Inc()
		return Response{Status: StatusError, Error: fmt.Sprintf("unknown placement %d", id)}
	}
	if err := s.trms.ReportOutcome(op.p, op.toa, req.Outcome, req.Now); err != nil {
		// Nothing was applied (e.g. an off-scale outcome): reopen.
		s.books.settle(id, false)
		s.sm.reportErr.Inc()
		return Response{Status: StatusError, Error: err.Error()}
	}
	if err := s.journalAppend(journalRecord{
		Kind: recReport, ID: id, Outcome: req.Outcome, Now: req.Now,
	}); err != nil {
		s.sm.reportErr.Inc()
		return Response{Status: StatusError,
			Error: fmt.Sprintf("report for %d applied but not journalled: %v", id, err)}
	}
	s.books.settle(id, true)
	s.sm.reportOK.Inc()
	return Response{Status: StatusOK}
}

func (s *Server) handleStats() Response {
	processed, committed, rejected := s.trms.AgentStats()
	open, _ := s.books.counts()
	return Response{Status: StatusOK, Stats: &StatsInfo{
		Placed:          s.trms.Placed(),
		AgentsProcessed: processed,
		AgentsCommitted: committed,
		AgentsRejected:  rejected,
		TableVersion:    s.trms.Table().Version(),
		TableEntries:    s.trms.Table().Len(),
		OpenPlacements:  open,
	}}
}
