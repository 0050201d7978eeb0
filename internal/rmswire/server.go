package rmswire

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/wal"
)

// DefaultRetryAfter is the backoff hint carried on StatusOverloaded
// responses when Server.RetryAfter is zero.
const DefaultRetryAfter = 50 * time.Millisecond

// Server exposes one TRMS over the wire.  Its ledger keeps placements by
// id so outcome reports can reference them across connections.  The
// listener, the connections, their request loops, ServeConn and Close are
// internal/frame's (server.go); what follows is this protocol's own.
type Server struct {
	*wire
	trms *core.TRMS

	// IdleTimeout is the per-connection read/write deadline; 0 selects
	// frame.DefaultIdleTimeout, negative disables deadlines.  Set before
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

	// tokens is the admission semaphore (nil when MaxInFlight == 0),
	// made by the first acquire; inflight counts executing requests for
	// health and drain even when admission is unlimited.
	tokensOnce sync.Once
	tokens     chan struct{}
	inflight   atomic.Int64
	draining   atomic.Bool
	drainReq   chan struct{}

	// degraded is the daemon-level fail-stop latch: once the journal
	// reports a WAL fail-stop (a failed write or fsync — durability can
	// no longer be promised) every subsequent mutation is refused and
	// health reports "degraded".  Reads, health, metrics and drain keep
	// working so the operator can inspect and retire the shard.
	// degradedCause holds the first error, for health and logs.
	degraded      atomic.Bool
	degradedCause atomic.Value // string

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

type wire = frame.Server[Request, Response]

// Router decides whether a request belongs elsewhere.  Route returns
// handled when it answered the request from another shard, with the
// answer and, when the answer is the owner's reply line to go back to
// the client as it stands, that line; or (zero, nil, false) when the
// request is local (including deliberate failover after the owner
// proved unreachable).  line is the line req was read from when the
// codec's fast path took it, else nil (Forward); relay is the entry
// connection's Line, which the reply line may occupy.  Implementations
// must not call back into the server they are attached to.
type Router interface {
	Route(req Request, line []byte, relay *frame.Line) (resp Response, reply []byte, handled bool)
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
	// The gauges a scrape reads where they are kept, so no request keeps
	// them current; the two ledger sizes share one read of its lock.
	books := metrics.PerScrape(s.reg, func() [2]int {
		open, idem := s.books.counts()
		return [2]int{open, idem}
	})
	s.reg.GaugeFunc(MetricConns, func() int64 { return int64(s.Conns()) })
	s.reg.GaugeFunc(MetricOpenPlacements, func() int64 { return int64(books()[0]) })
	s.reg.GaugeFunc(MetricIdemEntries, func() int64 { return int64(books()[1]) })
	s.reg.GaugeFunc(MetricInFlight, s.inflight.Load)
	s.reg.GaugeFunc(MetricPlaced, func() int64 { return int64(s.trms.Placed()) })
	s.reg.GaugeFunc(MetricDraining, func() int64 { return flag(s.draining.Load()) })
	s.reg.GaugeFunc(MetricDegraded, func() int64 { return flag(s.degraded.Load()) })
	s.wire = frame.NewServer(requestCodec, responseCodec, frame.Handler[Request, Response]{
		Respond: s.answer,
		Fail:    func(err error, resp *Response) { *resp = Response{Status: StatusError, Error: err.Error()} },
		Admit:   s.admit,
		Sent:    s.sent,
		Idle:    s.idleTimeout,
	})
	return s, nil
}

// flag is a gauge's reading of a latch.
func flag(on bool) int64 {
	if on {
		return 1
	}
	return 0
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

// admit is the accept-time admission: a connection over MaxConns, or
// any while draining, is answered with a single overloaded frame and
// closed, so the peer learns "retry later" instead of seeing a bare RST.
func (s *Server) admit(open int, resp *Response) bool {
	switch {
	case s.draining.Load():
		s.sm.shedDraining.Inc()
		*resp = s.overloaded("draining")
	case s.MaxConns > 0 && open >= s.MaxConns:
		s.sm.shedConnLimit.Inc()
		*resp = s.overloaded(fmt.Sprintf("connection limit %d reached", s.MaxConns))
	default:
		s.sm.connsAccepted.Inc()
		return true
	}
	resp.ConnClosing = true
	return false
}

// Shutdown drains the server gracefully: it stops accepting, sheds every
// request that arrives after the call with StatusOverloaded("draining"),
// and waits up to timeout for already-admitted requests to finish before
// force-closing the remaining connections.  It returns true if all
// in-flight work completed inside the deadline.  Callers holding a
// journal typically take a final Checkpoint afterwards.
func (s *Server) Shutdown(timeout time.Duration) bool {
	s.draining.Store(true)
	s.StopAccepting()
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

// DrainRequested is signalled (once, non-blocking) when the reply to a
// client's drain op has been written; the process owning the server
// decides how to shut down.
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
	s.tokensOnce.Do(s.makeTokens)
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

func (s *Server) makeTokens() {
	if s.MaxInFlight > 0 {
		s.tokens = make(chan struct{}, s.MaxInFlight)
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
		return frame.DefaultIdleTimeout
	}
	if s.IdleTimeout < 0 {
		return 0
	}
	return s.IdleTimeout
}

// answer is the request loop's respond.  A draining server finishes the
// request it already answered and then closes the stream so the client
// reconnects elsewhere; it says so in the frame so the client redials
// instead of discovering a dead connection on its next request.  That
// frame is its own, so a relayed reply line is then re-encoded; a scrape
// line is the server's own already, and conn_closing, the last field a
// reply has, is appended to it.
func (s *Server) answer(line []byte, req *Request, resp *Response, relay *frame.Line) ([]byte, bool) {
	var reply []byte
	*resp, reply = s.respond(*req, line, relay)
	closing := s.draining.Load()
	switch {
	case !closing:
	case req.Op == OpMetrics:
		relay.Bytes = append(reply[:len(reply)-1], `,"conn_closing":true}`...)
		reply = relay.Bytes
	default:
		reply = nil
	}
	resp.ConnClosing = resp.ConnClosing || closing
	return reply, closing
}

// sent signals the owner of a drain only once the ok is written: drain
// holds no in-flight slot, so an owner that shuts down at once would
// otherwise close the connection under the reply.
func (s *Server) sent(req *Request) {
	if req.Op == OpDrain {
		select {
		case s.drainReq <- struct{}{}:
		default:
		}
	}
}

// respond executes one request against the TRMS, or has the Router
// answer it from another shard, and returns the reply with, when the
// Router relayed one, the owner's reply line.  Mutating ops run under
// the journal read-lock so checkpoints observe a quiescent daemon.
// Health and drain bypass admission entirely — they must answer precisely
// when the daemon is overloaded or draining.
func (s *Server) respond(req Request, line []byte, relay *frame.Line) (Response, []byte) {
	switch req.Op {
	case OpHealth:
		return s.handleHealth(), nil
	case OpMetrics:
		relay.Bytes = s.scrape(relay.Bytes[:0])
		return Response{}, relay.Bytes
	case OpDrain:
		// The owner is signalled by sent, after this reply is written.
		return Response{Status: StatusOK}, nil
	case OpCheckpoint:
		return s.handleCheckpoint(), nil
	case OpFleet:
		return s.handleFleet(), nil
	}
	s.sm.requests.Inc()
	if s.draining.Load() {
		s.sm.shedDraining.Inc()
		return s.overloaded("draining"), nil
	}
	// Fail-stop: a daemon whose journal can no longer promise durability
	// refuses every mutation outright (StatusError, not overloaded — a
	// retry here can never succeed; the client must go elsewhere).
	// Reads still serve.
	if deg, cause := s.Degraded(); deg && (req.Op == OpSubmit || req.Op == OpReport) {
		s.sm.refusedDegraded.Inc()
		return Response{Status: StatusError,
			Error: fmt.Sprintf("daemon degraded (journal fail-stop): %s", cause)}, nil
	}
	if !s.acquire(time.Duration(req.BudgetMS) * time.Millisecond) {
		s.sm.shedInflight.Inc()
		return s.overloaded(fmt.Sprintf("in-flight limit %d reached", s.MaxInFlight)), nil
	}
	defer s.release()
	// Fleet routing: a mis-routed submit or report is executed on its
	// owning shard and the owner's reply line relayed verbatim.  Forwards
	// hold an in-flight slot (they are real work this shard performs)
	// but never touch the journal lock — nothing local is mutated.
	// A submit key already in the local idempotency table is replayed
	// here even if the ring says a peer owns it: the key was placed on
	// this shard (typically by failover while the owner was down), and
	// re-forwarding its retry would double-place it at the owner.
	if s.Router != nil && !req.Forwarded && (req.Op == OpSubmit || req.Op == OpReport) {
		if req.Op != OpSubmit || req.IdemKey == "" || !s.books.known(req.IdemKey) {
			if resp, reply, handled := s.Router.Route(req, line, relay); handled {
				return resp, reply
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
	return resp, nil
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
	open, idem := s.books.counts()
	topo := s.trms.Topology()
	h := &HealthInfo{
		Status:           healthOK,
		Draining:         s.draining.Load(),
		Conns:            s.Conns(),
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
		h.Status = healthDraining
	}
	if deg, cause := s.Degraded(); deg {
		h.Status = healthDegraded
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

// scrape writes the metrics reply line from the registry: the bytes
// responseCodec writes for Response{Status: StatusOK, Metrics:
// &MetricsInfo{Snapshot: *s.reg.Snapshot(), ...}}, with no Snapshot
// taken.  Like health it bypasses admission — an overloaded daemon must
// still be observable.  The point-in-time gauges (connection and queue
// depths, durable placement/idempotency anchors, WAL totals) are func
// metrics the registry reads here, keeping the request hot path free of
// gauge bookkeeping.
func (s *Server) scrape(dst []byte) []byte {
	dst = s.reg.AppendJSON(append(dst, `{"status":"ok","metrics":`...))
	// The snapshot's object is MetricsInfo's, open for its own fields.
	dst = append(dst[:len(dst)-1], `,"uptime_ms":`...)
	dst = strconv.AppendInt(dst, time.Since(s.start).Milliseconds(), 10)
	dst = append(dst, `,"start_unix_nanos":`...)
	dst = strconv.AppendInt(dst, s.startUnixNanos, 10)
	return append(dst, "}}"...)
}

func (s *Server) handleCheckpoint() Response {
	info, err := s.Checkpoint()
	if err != nil {
		return Response{Status: StatusError, Error: err.Error()}
	}
	return Response{Status: StatusOK, Checkpoint: info}
}

// handleSubmit places one task.  A key already acknowledged replays the
// original placement; a key whose first attempt is executing, or a
// router-minted key below its window (ledger.go), is shed as retryable
// rather than raced into a double-place.
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
		case stale:
			// Placed here once, or never: the window no longer says which.
			return s.overloaded(fmt.Sprintf("submit with idempotency key %q is below its forward-key window", req.IdemKey))
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
	table := s.trms.Table().Replica()
	return Response{Status: StatusOK, Stats: &StatsInfo{
		Placed:          s.trms.Placed(),
		AgentsProcessed: processed,
		AgentsCommitted: committed,
		AgentsRejected:  rejected,
		TableVersion:    table.Version(),
		TableEntries:    table.Len(),
		OpenPlacements:  open,
	}}
}
