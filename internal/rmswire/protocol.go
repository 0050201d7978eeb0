// Package rmswire exposes a running TRMS (internal/core) over a
// stream-oriented transport, making the trust-aware resource management
// system deployable as a daemon: clients submit tasks, receive placements,
// and report transaction outcomes; the server schedules against the live
// trust table and feeds outcomes to the monitoring agent.
//
// The wire format is newline-delimited JSON frames, one request and one
// response per line, mirroring internal/trustwire.  The protocol is
// deliberately synchronous (request/response over one connection): the
// paper's RMS is centrally organised, and one placement is one exchange.
//
// The mapping heuristic is not what bounds a submit.  The decision is one
// to two microseconds; the rest of a local submit is the transport, and
// while frames went through reflection JSON that was mostly encoding
// (EXPERIMENTS.md "PR 24").  The frames and the journal record are now
// written and read by field tables (codec.go, over internal/frame), byte
// for byte what encoding/json writes, so the struct tags below remain the
// definition of the protocol; what is left of a submit is chiefly the
// four socket calls of its round trip and strconv on its EEC row.
package rmswire

import (
	"errors"
	"fmt"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
)

// Operation names.
const (
	OpSubmit     = "submit"
	OpReport     = "report"
	OpStats      = "stats"
	OpCheckpoint = "checkpoint"
	OpHealth     = "health"
	OpDrain      = "drain"
	OpMetrics    = "metrics"
	// OpFleet reports the shard's fleet view (ring membership, per-peer
	// gossip state).  Like health it bypasses admission; it answers
	// StatusError on a daemon running without -fleet.
	OpFleet = "fleet"
)

// ShardIDShift namespaces placement ids in a fleet: shard k issues ids
// with k in the bits at and above the shift, so any shard can route an
// outcome report to the owner with id >> ShardIDShift — statelessly,
// even for placements created before a restart.  A non-fleet daemon
// issues ids from 0 and is shard 0 by construction.  48 low bits leave
// room for ~2.8e14 placements per shard before namespaces could touch.
const ShardIDShift = 48

// Metric names served by the metrics op.  Exported so the load driver
// and tests reconcile against the same strings the server maintains.
//
// Counters (monotonic since process start; they do NOT survive restart —
// reconciliation across a restart must use the durable gauges below):
const (
	// MetricConnsAccepted counts connections admitted into serving.
	MetricConnsAccepted = "conns_accepted_total"
	// MetricShedConnLimit counts connections rejected at accept time by
	// MaxConns.  These rejections race the peer's first write, so a
	// client may observe them as either an overloaded reply or a broken
	// connection — reconcile with an interval, not equality.
	MetricShedConnLimit = "shed_conn_limit_total"
	// MetricShedDraining counts requests and connections shed because
	// the server is draining.
	MetricShedDraining = "shed_draining_total"
	// MetricShedInflight counts requests shed by the MaxInFlight
	// admission semaphore after their budget expired.
	MetricShedInflight = "shed_inflight_total"
	// MetricShedIdemPending counts submits shed because their
	// idempotency key's first attempt was still executing.
	MetricShedIdemPending = "shed_idem_pending_total"
	// MetricShedReportPending counts reports shed because an earlier
	// report of the same placement was still executing.
	MetricShedReportPending = "shed_report_pending_total"
	// MetricOverloadReplies counts every overloaded frame written,
	// whatever the shed reason; it equals the sum of the shed_* counters.
	MetricOverloadReplies = "overload_replies_total"
	// MetricRequests counts admitted, executed requests (submit, report,
	// stats).  Health, drain, checkpoint and metrics bypass admission
	// and are not counted.
	MetricRequests = "requests_total"
	// MetricSubmitOK / MetricSubmitErr count submit responses; OK
	// includes idempotent replays of an already-placed key.
	MetricSubmitOK  = "submit_ok_total"
	MetricSubmitErr = "submit_err_total"
	// MetricReportOK / MetricReportErr count report responses.  OK counts
	// reports applied, once each; a duplicate answered as a replay is
	// counted by MetricReportReplays instead, so report_ok_total still
	// equals the number of placements closed.
	MetricReportOK      = "report_ok_total"
	MetricReportErr     = "report_err_total"
	MetricReportReplays = "report_replays_total"
	// MetricPlacements counts fresh placements (excludes idempotent
	// replays).
	MetricPlacements = "placements_total"
	// MetricIdemHits counts submits answered from the idempotency table.
	MetricIdemHits = "idem_hits_total"
	// MetricRefusedDegraded counts mutations refused because the daemon
	// latched into journal fail-stop (see MetricDegraded).
	MetricRefusedDegraded = "refused_degraded_total"
	// MetricAutoCheckpointErrors counts automatic checkpoints that
	// failed; the next attempt waits another compact-every records.
	MetricAutoCheckpointErrors = "auto_checkpoint_errors_total"
	// MetricWALAppends / MetricWALSyncs / MetricWALRotations mirror the
	// attached journal's wal.Stats at scrape time.
	MetricWALAppends   = "wal_appends_total"
	MetricWALSyncs     = "wal_syncs_total"
	MetricWALRotations = "wal_rotations_total"
)

// Gauges (instantaneous, refreshed at scrape time).  MetricPlaced and
// MetricIdemEntries are rebuilt from the WAL on restart, so they are the
// reconciliation anchors that survive a SIGKILL.
const (
	MetricConns          = "conns"
	MetricInFlight       = "in_flight"
	MetricOpenPlacements = "open_placements"
	MetricIdemEntries    = "idem_entries"
	MetricPlaced         = "placed"
	MetricDraining       = "draining"
	// MetricDegraded is 1 once the journal hit fail-stop and the daemon
	// refuses mutations, 0 while healthy.  It never returns to 0 within
	// one process lifetime — fail-stop is sticky by design.
	MetricDegraded       = "degraded"
	MetricWALSegments    = "wal_segments"
	MetricJournalNextSeq = "journal_next_seq"
)

// Histograms.
const (
	// MetricOpSubmitNS / MetricOpReportNS / MetricOpStatsNS record
	// server-side execution latency per op in nanoseconds.
	MetricOpSubmitNS = "op_submit_ns"
	MetricOpReportNS = "op_report_ns"
	MetricOpStatsNS  = "op_stats_ns"
	// MetricWALBatchRecords records records-per-fsync group-commit batch
	// sizes (attached by the daemon via wal.Options.SyncObserver).
	MetricWALBatchRecords = "wal_batch_records"
)

// Request is one client request frame.
type Request struct {
	Op string `json:"op"`

	// Submit fields.
	Client     int       `json:"client,omitempty"`
	Activities []int     `json:"activities,omitempty"`
	RTL        string    `json:"rtl,omitempty"`
	EEC        []float64 `json:"eec,omitempty"`

	// IdemKey makes a Submit idempotent: the server remembers the key in
	// its journal and a replayed or retried submit with the same key
	// returns the original placement instead of double-placing.  Empty
	// disables deduplication (and keeps the frame byte-identical to the
	// pre-resilience protocol).
	IdemKey string `json:"idem_key,omitempty"`

	// BudgetMS is the client's remaining deadline budget for this request
	// in milliseconds.  A loaded server holds admission for at most this
	// long before shedding; zero means "do not wait at all" when the
	// server is at its in-flight limit.
	BudgetMS int64 `json:"budget_ms,omitempty"`

	// Report fields.
	PlacementID uint64  `json:"placement_id,omitempty"`
	Outcome     float64 `json:"outcome,omitempty"`

	// Shared simulated-time stamp.
	Now float64 `json:"now,omitempty"`

	// Forwarded marks a shard-to-shard forward in a fleet: the receiving
	// shard executes it locally even if its ring view disagrees, which
	// terminates any possible forwarding loop at one hop.  Clients never
	// set it; non-fleet daemons ignore it.
	Forwarded bool `json:"fwd,omitempty"`
}

// PlacementInfo is the wire form of a core.Placement.
type PlacementInfo struct {
	ID      uint64  `json:"id"`
	Machine int     `json:"machine"`
	RD      int     `json:"rd"`
	CD      int     `json:"cd"`
	OTL     string  `json:"otl"`
	TC      int     `json:"tc"`
	EEC     float64 `json:"eec"`
	ESC     float64 `json:"esc"`
	ECC     float64 `json:"ecc"`
	Start   float64 `json:"start"`
	Finish  float64 `json:"finish"`
}

// StatsInfo summarises the daemon state.
type StatsInfo struct {
	Placed          int    `json:"placed"`
	AgentsProcessed int    `json:"agents_processed"`
	AgentsCommitted int    `json:"agents_committed"`
	AgentsRejected  int    `json:"agents_rejected"`
	TableVersion    uint64 `json:"table_version"`
	TableEntries    int    `json:"table_entries"`
	OpenPlacements  int    `json:"open_placements"`
}

// HealthInfo is the readiness view returned by the health op.  It is
// served even when the daemon is shedding load, so probes and balancers
// can distinguish "overloaded but alive" from "draining" from "dead".
type HealthInfo struct {
	Status   string `json:"status"` // "ok" | "draining" | "degraded"
	Draining bool   `json:"draining,omitempty"`
	// Degraded reports the sticky journal fail-stop latch: the daemon
	// refuses all mutations and will not recover without a restart onto
	// healthy storage.  DegradedCause is the first error that tripped it.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedCause  string `json:"degraded_cause,omitempty"`
	Conns          int    `json:"conns"`
	MaxConns       int    `json:"max_conns,omitempty"`
	InFlight       int    `json:"in_flight"`
	MaxInFlight    int    `json:"max_in_flight,omitempty"`
	OpenPlacements int    `json:"open_placements"`
	Placed         int    `json:"placed"`

	// Journal state; all zero when the daemon runs without a WAL.
	Journal         bool   `json:"journal,omitempty"`
	JournalNextSeq  uint64 `json:"journal_next_seq,omitempty"`
	JournalSegments int    `json:"journal_segments,omitempty"`
	IdemEntries     int    `json:"idem_entries,omitempty"`

	// UptimeMS is milliseconds since the server started, measured on the
	// monotonic clock; StartUnixNanos identifies the process instance.
	// A scripted poller that sees uptime decrease (or the start stamp
	// change) between scrapes knows the daemon restarted, even if the
	// restart was faster than its polling interval.
	UptimeMS       int64 `json:"uptime_ms"`
	StartUnixNanos int64 `json:"start_unix_nanos"`
	// MetricsSeq is the metrics-snapshot sequence number of the last
	// metrics scrape (0 if none yet); like uptime, it resets on restart.
	MetricsSeq uint64 `json:"metrics_seq"`

	// Topology sizes, so load drivers can build EEC vectors and spread
	// client ids without probing.
	TopologyMachines int `json:"topology_machines"`
	TopologyClients  int `json:"topology_clients"`
}

// The health statuses.
const (
	healthOK       = "ok"
	healthDraining = "draining"
	healthDegraded = "degraded"
)

// MetricsInfo is the payload of the metrics op: a point-in-time registry
// snapshot plus the instance identity needed to detect restarts between
// scrapes.
type MetricsInfo struct {
	metrics.Snapshot
	UptimeMS       int64 `json:"uptime_ms"`
	StartUnixNanos int64 `json:"start_unix_nanos"`
}

// FleetInfo is the payload of the fleet op: this shard's identity, its
// ring view, and the gossip state it holds about every peer.  gridctl
// aggregates it across shards for fleet-wide health and convergence
// checks (shard i's view of peer j has converged when its synced
// version equals j's own TableVersion).
type FleetInfo struct {
	Shard      string   `json:"shard"`
	ShardIndex int      `json:"shard_index"`
	Members    []string `json:"members"`
	VNodes     int      `json:"vnodes"`

	// CDs is the number of client domains in the topology — the ring's
	// key space (tooling dumps ownership for cd 0..CDs-1).
	CDs int `json:"cds"`

	// TableVersion/TableEntries describe the local authoritative table —
	// the state peers replicate.
	TableVersion uint64 `json:"table_version"`
	TableEntries int    `json:"table_entries"`

	GossipIntervalMS int64 `json:"gossip_interval_ms"`
	StalenessBoundMS int64 `json:"staleness_bound_ms"`

	Peers []FleetPeerInfo `json:"peers,omitempty"`
}

// FleetPeerInfo is one peer's gossip state as seen from this shard.
type FleetPeerInfo struct {
	Name      string `json:"name"`
	Addr      string `json:"addr"`
	TrustAddr string `json:"trust_addr,omitempty"`

	// Version/Entries describe the last claim set applied from this
	// peer; AgeMS is how long ago that sync succeeded (-1 = never).
	// Stale reports whether the claims have outlived the staleness
	// bound and are currently ignored by the scheduler.
	Version uint64 `json:"version"`
	Entries int    `json:"entries"`
	AgeMS   int64  `json:"age_ms"`
	Stale   bool   `json:"stale"`

	Syncs      uint64 `json:"syncs"`
	SyncErrors uint64 `json:"sync_errors"`

	// Breaker is this shard's circuit-breaker state for forwards to the
	// peer ("closed" | "open" | "half-open"; empty on older shards);
	// BreakerOpens/BreakerCloses count its lifetime transitions.
	Breaker       string `json:"breaker,omitempty"`
	BreakerOpens  uint64 `json:"breaker_opens,omitempty"`
	BreakerCloses uint64 `json:"breaker_closes,omitempty"`
}

// Response is one server response frame.
type Response struct {
	Status     string          `json:"status"` // "ok" | "error" | "overloaded"
	Error      string          `json:"error,omitempty"`
	Placement  *PlacementInfo  `json:"placement,omitempty"`
	Stats      *StatsInfo      `json:"stats,omitempty"`
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"`
	Health     *HealthInfo     `json:"health,omitempty"`
	Metrics    *MetricsInfo    `json:"metrics,omitempty"`
	Fleet      *FleetInfo      `json:"fleet,omitempty"`

	// RetryAfterMS accompanies StatusOverloaded: the server's hint for how
	// long a well-behaved client should back off before retrying.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`

	// Replayed marks an ok reply to a report this daemon had already
	// applied: the placement was minted here and is closed, so the
	// report's first delivery landed and only its acknowledgement can
	// have been lost.  Nothing is applied twice.  Absent on every other
	// reply, so a run that never replays is byte-identical to one by a
	// daemon that predates the flag.
	Replayed bool `json:"replayed,omitempty"`

	// ConnClosing tells the client the server will close this connection
	// after the frame (accept-time shed, drain).  A retrier that sees it
	// redials immediately instead of burning its next attempt discovering
	// a dead connection — without it, every conn-level shed cost two
	// attempts (one overloaded reply + one transport error on the reuse).
	ConnClosing bool `json:"conn_closing,omitempty"`
}

// Response statuses.
const (
	StatusOK    = "ok"
	StatusError = "error"
	// StatusOverloaded is a typed, retryable rejection: the request was
	// not admitted (no state changed) and may be retried after the
	// carried retry_after_ms hint.
	StatusOverloaded = "overloaded"
)

// ErrOverloaded matches (via errors.Is) the client-side error produced by
// a StatusOverloaded response.
var ErrOverloaded = errors.New("rmswire: server overloaded")

// OverloadedError is the typed client-side form of a StatusOverloaded
// response.  errors.Is(err, ErrOverloaded) reports true for it.
type OverloadedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("rmswire: server overloaded: %s (retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("rmswire: server overloaded (retry after %v)", e.RetryAfter)
}

// Is lets errors.Is(err, ErrOverloaded) match without unwrapping.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// activitiesToToA validates and converts wire activity ids.
func activitiesToToA(ids []int) (grid.ToA, error) {
	if len(ids) == 0 {
		return grid.ToA{}, fmt.Errorf("rmswire: empty activity list")
	}
	acts := make([]grid.Activity, len(ids))
	for i, id := range ids {
		if id < 0 {
			return grid.ToA{}, fmt.Errorf("rmswire: negative activity id %d", id)
		}
		acts[i] = grid.Activity(id)
	}
	return grid.NewToA(acts...)
}
