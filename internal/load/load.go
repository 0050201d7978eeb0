// Package load is the production load-bench driver behind cmd/gridload:
// it drives a running gridtrustd over the wire with N concurrent
// clients in closed- or open-loop mode, measures client-side throughput
// and latency percentiles, and — the part a plain benchmark skips —
// reconciles its own counts against the daemon's {"op":"metrics"}
// counters, so a run that silently dropped or double-placed work fails
// loudly instead of reporting a pretty number.
//
// Arrivals, task contents and idempotency keys are all drawn from
// internal/rng streams seeded by Config.Seed, so a run is exactly
// reproducible against a deterministic daemon.
//
// Closed loop: each worker issues its next request as soon as the
// previous one completes — it measures the daemon's capacity.  Open
// loop: arrivals are scheduled at Config.TargetRPS by an arrival
// process (constant, Poisson, or bursty) independent of completions,
// and latency is measured from the *scheduled* arrival time, so queueing
// delay is charged to the daemon rather than silently absorbed
// (coordinated-omission correction).
//
// Every submit travels under an idempotency key derived from the run's
// key prefix, which makes the accounting exact even through retries,
// overload sheds and daemon restarts: after the timed phase a settle
// pass resubmits every key whose outcome was ambiguous (attempts
// exhausted mid-run), and the daemon's idempotency layer guarantees each
// key maps to exactly one placement.  The durable reconciliation anchors
// — placed, idem_entries, open_placements — survive SIGKILL because the
// daemon restores them from its WAL.
package load

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/rng"
)

// Modes and arrival processes.
const (
	ModeClosed = "closed"
	ModeOpen   = "open"

	ArrivalConstant = "constant"
	ArrivalPoisson  = "poisson"
	ArrivalBursty   = "bursty"
)

// burstSize groups bursty arrivals: every burst arrives at one instant,
// bursts are spaced so the mean rate stays at TargetRPS.
const burstSize = 8

// Config parameterises one load run.  Zero values select defaults.
type Config struct {
	Addr string

	// FleetAddrs, when non-empty, runs the driver against a sharded
	// fleet: workers pin themselves round-robin to the listed shard
	// addresses (the fleet's exactly-once guarantee is per entry shard,
	// so a worker never migrates mid-run), health is probed from the
	// first shard, and reconciliation sums the durable anchors across
	// every shard instead of reading one daemon.  Addr is ignored.
	FleetAddrs []string

	Clients  int           // concurrent workers (default 4)
	Mode     string        // ModeClosed (default) or ModeOpen
	Rate     float64       // open-loop target RPS (required for ModeOpen)
	Arrival  string        // open-loop arrival process (default constant)
	Duration time.Duration // timed phase length (default 5s)

	// ReportFraction of successful placements receive an outcome report
	// (default 1); Outcome is the reported value on [1,6] (default 5).
	ReportFraction float64
	Outcome        float64

	RTL        string // required trust level letter (default "A")
	Activities []int  // task activities (default [0] = compute)

	// SLO is the submit-latency objective; the report carries the exact
	// fraction of submits that met it (default 50ms).
	SLO time.Duration

	Seed      uint64
	KeyPrefix string // idempotency-key namespace (default "load"); use a fresh prefix per run against a durable daemon

	// Retrier tuning; zero values select rmswire defaults.
	MaxAttempts int
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	OpTimeout   time.Duration
	Budget      time.Duration

	// SettleTimeout bounds the post-run settle pass (default 15s).
	SettleTimeout time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if len(c.FleetAddrs) > 0 {
		c.Addr = c.FleetAddrs[0]
	}
	if c.Addr == "" {
		return c, fmt.Errorf("load: Addr required")
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Mode == "" {
		c.Mode = ModeClosed
	}
	if c.Mode != ModeClosed && c.Mode != ModeOpen {
		return c, fmt.Errorf("load: unknown mode %q", c.Mode)
	}
	if c.Mode == ModeOpen && c.Rate <= 0 {
		return c, fmt.Errorf("load: open loop requires Rate > 0")
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalConstant
	}
	switch c.Arrival {
	case ArrivalConstant, ArrivalPoisson, ArrivalBursty:
	default:
		return c, fmt.Errorf("load: unknown arrival process %q", c.Arrival)
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.ReportFraction == 0 {
		c.ReportFraction = 1
	}
	if c.ReportFraction < 0 || c.ReportFraction > 1 {
		return c, fmt.Errorf("load: ReportFraction %v outside [0,1]", c.ReportFraction)
	}
	if c.Outcome == 0 {
		c.Outcome = 5
	}
	if c.RTL == "" {
		c.RTL = "A"
	}
	if len(c.Activities) == 0 {
		c.Activities = []int{int(grid.ActCompute)}
	}
	if c.SLO <= 0 {
		c.SLO = 50 * time.Millisecond
	}
	if c.KeyPrefix == "" {
		c.KeyPrefix = "load"
	}
	if c.SettleTimeout <= 0 {
		c.SettleTimeout = 15 * time.Second
	}
	return c, nil
}

// LatencySummary condenses one op kind's latencies, in milliseconds.  N,
// the mean and the max are exact; the percentiles are the histogram's
// bucket estimates (metrics.HistSnapshot.Quantile).
type LatencySummary struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// summarize reads a histogram of latencies in nanoseconds, and the
// largest one observed.
func summarize(s *metrics.HistSnapshot, longest time.Duration) LatencySummary {
	if s.Count == 0 {
		return LatencySummary{}
	}
	const ms = float64(time.Millisecond)
	return LatencySummary{
		N:      int(s.Count),
		MeanMS: s.Mean() / ms,
		P50MS:  s.Quantile(0.50) / ms,
		P90MS:  s.Quantile(0.90) / ms,
		P95MS:  s.Quantile(0.95) / ms,
		P99MS:  s.Quantile(0.99) / ms,
		P999MS: s.Quantile(0.999) / ms,
		MaxMS:  float64(longest) / ms,
	}
}

// Check is one reconciliation assertion between client-side and
// daemon-side accounting.
type Check struct {
	Name    string `json:"name"`
	Got     int64  `json:"got"`
	Want    int64  `json:"want"`
	OK      bool   `json:"ok"`
	Skipped bool   `json:"skipped,omitempty"`
	Note    string `json:"note,omitempty"`
}

// Reconcile is the full cross-check; OK means every non-skipped check
// held.
type Reconcile struct {
	OK              bool    `json:"ok"`
	DaemonRestarted bool    `json:"daemon_restarted"`
	Checks          []Check `json:"checks"`
}

// Report is the machine-readable result of one load run.
type Report struct {
	Mode        string  `json:"mode"`
	Clients     int     `json:"clients"`
	Arrival     string  `json:"arrival,omitempty"`
	TargetRPS   float64 `json:"target_rps,omitempty"`
	Seed        uint64  `json:"seed"`
	DurationSec float64 `json:"duration_sec"`
	CPUs        int     `json:"cpus"`

	SubmitsIssued int64 `json:"submits_issued"`
	SubmitsOK     int64 `json:"submits_ok"`
	SubmitErrors  int64 `json:"submit_errors"`
	Ambiguous     int64 `json:"ambiguous"`
	Settled       int64 `json:"settled"`
	Unresolved    int64 `json:"unresolved"`
	ReportsOK     int64 `json:"reports_ok"`
	ReportErrors  int64 `json:"report_errors"`

	// Throughput counts completed ops (submits+reports) per wall second
	// of the timed phase; PerCore divides by CPUs.
	ThroughputRPS float64 `json:"throughput_rps"`
	PerCoreRPS    float64 `json:"per_core_rps"`

	SubmitLatency LatencySummary `json:"submit_latency"`
	ReportLatency LatencySummary `json:"report_latency"`

	SLOTargetMS float64 `json:"slo_target_ms"`
	SLOAttained float64 `json:"slo_attained"` // exact fraction of submits within SLO

	Retrier rmswire.RetrierCounters `json:"retrier"`

	DaemonBefore *rmswire.MetricsInfo `json:"daemon_before,omitempty"`
	DaemonAfter  *rmswire.MetricsInfo `json:"daemon_after,omitempty"`

	// Fleet runs carry the shard addresses and per-shard snapshots
	// instead of the single-daemon pair above.
	FleetAddrs   []string               `json:"fleet_addrs,omitempty"`
	ShardsBefore []*rmswire.MetricsInfo `json:"shards_before,omitempty"`
	ShardsAfter  []*rmswire.MetricsInfo `json:"shards_after,omitempty"`

	Reconcile Reconcile `json:"reconcile"`
}

// pendingOp is a submit or report the timed phase left undecided: the
// retrier gave up without a final answer, so the op may or may not have
// been executed.  The settle pass runs it again — both ops replay, the
// submit by its idempotency key, the report as a typed replay — and books
// the answer in the same counters.
type pendingOp struct {
	op       func() error
	ok, errs *int64
}

// worker is one concurrent load client.
type worker struct {
	id       int
	clientID grid.ClientID
	retrier  *rmswire.Retrier
	src      *rng.Source

	// The histograms are every worker's; the maxima are this one's.
	submitLat *metrics.Histogram
	reportLat *metrics.Histogram
	maxSubmit time.Duration
	maxReport time.Duration

	submitsIssued int64
	submitsOK     int64
	submitErrors  int64
	ambiguous     int64
	reportsOK     int64
	reportErrors  int64
	sloAttained   int64

	pending []pendingOp
}

// Run executes one load run against a live daemon and returns the
// report.  It is synchronous; the caller owns cancellation by choosing
// Config.Duration.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	acts := make([]grid.Activity, len(cfg.Activities))
	for i, a := range cfg.Activities {
		acts[i] = grid.Activity(a)
	}
	rtl, err := grid.ParseLevel(cfg.RTL)
	if err != nil {
		return nil, err
	}

	// One probe per shard (one total outside fleet mode): the probes
	// scrape the before/after metric snapshots reconciliation compares.
	shardAddrs := cfg.FleetAddrs
	if len(shardAddrs) == 0 {
		shardAddrs = []string{cfg.Addr}
	}
	probes := make([]*rmswire.Retrier, len(shardAddrs))
	for i, a := range shardAddrs {
		probes[i] = rmswire.NewRetrier(cfg.retrierConfigAddr(a, cfg.Seed^(0x9e3779b97f4a7c15+uint64(i))))
	}
	defer func() {
		for _, p := range probes {
			p.Close()
		}
	}()
	health, err := probes[0].Health()
	if err != nil {
		return nil, fmt.Errorf("load: health probe: %w", err)
	}
	if health.TopologyMachines <= 0 || health.TopologyClients <= 0 {
		return nil, fmt.Errorf("load: daemon reports empty topology (%d machines, %d clients)",
			health.TopologyMachines, health.TopologyClients)
	}
	before := make([]*rmswire.MetricsInfo, len(probes))
	for i, p := range probes {
		if before[i], err = p.Metrics(); err != nil {
			return nil, fmt.Errorf("load: metrics scrape (%s): %w", shardAddrs[i], err)
		}
	}

	streams := rng.Streams(cfg.Seed, cfg.Clients+1)
	var submitLat, reportLat metrics.Histogram
	workers := make([]*worker, cfg.Clients)
	for i := range workers {
		workers[i] = &worker{
			id:       i,
			clientID: grid.ClientID(i % health.TopologyClients),
			// Workers pin one entry shard for their whole run: the
			// fleet's exactly-once story (forwarded keys, failover keys)
			// is anchored on retries re-entering through the same shard.
			retrier:   rmswire.NewRetrier(cfg.retrierConfigAddr(shardAddrs[i%len(shardAddrs)], cfg.Seed+uint64(i)*0x1000)),
			src:       streams[i],
			submitLat: &submitLat,
			reportLat: &reportLat,
		}
	}
	defer func() {
		for _, w := range workers {
			w.retrier.Close()
		}
	}()

	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	var arrivalsCh chan time.Time
	if cfg.Mode == ModeOpen {
		arrivalsCh = make(chan time.Time, openQueueCap(cfg))
		go scheduleArrivals(cfg, streams[cfg.Clients], start, deadline, arrivalsCh)
	}
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			if cfg.Mode == ModeOpen {
				w.runOpen(cfg, acts, rtl, health.TopologyMachines, start, arrivalsCh)
			} else {
				w.runClosed(cfg, acts, rtl, health.TopologyMachines, start, deadline)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Settle: resolve every undecided op to a definitive outcome so the
	// accounting is exact.  This is safe because both ops replay: a key
	// that was placed returns its original placement, a key that never
	// landed places now, and a report that already landed is
	// acknowledged again without being applied again.
	var settled, unresolved int64
	settleBy := time.Now().Add(cfg.SettleTimeout)
	for _, w := range workers {
		for _, p := range w.pending {
			if time.Now().After(settleBy) {
				unresolved++
				continue
			}
			switch book(p.op(), p.ok, p.errs) {
			case acked:
				settled++
			case undecided:
				unresolved++
			}
		}
	}

	after := make([]*rmswire.MetricsInfo, len(probes))
	for i, p := range probes {
		if after[i], err = p.Metrics(); err != nil {
			return nil, fmt.Errorf("load: final metrics scrape (%s): %w", shardAddrs[i], err)
		}
	}

	rep := &Report{
		Mode:        cfg.Mode,
		Clients:     cfg.Clients,
		Seed:        cfg.Seed,
		DurationSec: elapsed.Seconds(),
		CPUs:        runtime.NumCPU(),
		Settled:     settled,
		Unresolved:  unresolved,
		SLOTargetMS: float64(cfg.SLO.Milliseconds()),
	}
	if cfg.Mode == ModeOpen {
		rep.Arrival = cfg.Arrival
		rep.TargetRPS = cfg.Rate
	}
	var maxSubmit, maxReport time.Duration
	var sloAttained int64
	for _, w := range workers {
		rep.SubmitsIssued += w.submitsIssued
		rep.SubmitsOK += w.submitsOK
		rep.SubmitErrors += w.submitErrors
		rep.Ambiguous += w.ambiguous
		rep.ReportsOK += w.reportsOK
		rep.ReportErrors += w.reportErrors
		sloAttained += w.sloAttained
		maxSubmit = max(maxSubmit, w.maxSubmit)
		maxReport = max(maxReport, w.maxReport)
		rep.Retrier.Add(w.retrier.Counters())
	}
	rep.ThroughputRPS = float64(rep.SubmitsOK+rep.ReportsOK-settled) / elapsed.Seconds()
	rep.PerCoreRPS = rep.ThroughputRPS / float64(rep.CPUs)
	rep.SubmitLatency = summarize(submitLat.Snapshot(), maxSubmit)
	rep.ReportLatency = summarize(reportLat.Snapshot(), maxReport)
	if n := rep.SubmitLatency.N; n > 0 {
		rep.SLOAttained = float64(sloAttained) / float64(n)
	}
	if len(cfg.FleetAddrs) > 0 {
		rep.FleetAddrs = cfg.FleetAddrs
		rep.ShardsBefore = before
		rep.ShardsAfter = after
	} else {
		rep.DaemonBefore = before[0]
		rep.DaemonAfter = after[0]
	}
	rep.Reconcile = reconcile(before, after, rep)
	return rep, nil
}

func (c Config) retrierConfigAddr(addr string, seed uint64) rmswire.RetrierConfig {
	return rmswire.RetrierConfig{
		Addr:        addr,
		MaxAttempts: c.MaxAttempts,
		BaseBackoff: c.BaseBackoff,
		MaxBackoff:  c.MaxBackoff,
		OpTimeout:   c.OpTimeout,
		Budget:      c.Budget,
		Seed:        seed,
	}
}

func openQueueCap(cfg Config) int {
	n := int(cfg.Rate*cfg.Duration.Seconds()) + cfg.Clients + 16
	if n > 1<<20 {
		n = 1 << 20
	}
	return n
}

// scheduleArrivals emits scheduled arrival instants at cfg.Rate until
// deadline, then closes ch.  The schedule is computed, not measured:
// a slow daemon cannot slow the arrival process down (open loop).
func scheduleArrivals(cfg Config, src *rng.Source, start, deadline time.Time, ch chan<- time.Time) {
	defer close(ch)
	mean := float64(time.Second) / cfg.Rate
	t := start
	burst := 0
	for {
		switch cfg.Arrival {
		case ArrivalPoisson:
			t = t.Add(time.Duration(src.Exponential(1) * mean))
		case ArrivalBursty:
			if burst == 0 {
				t = t.Add(time.Duration(float64(burstSize) * mean))
			}
			burst = (burst + 1) % burstSize
		default: // constant
			t = t.Add(time.Duration(mean))
		}
		if t.After(deadline) {
			return
		}
		ch <- t
	}
}

// genEEC draws one expected-execution-cost vector, uniform on [50,150)
// per machine.
func (w *worker) genEEC(machines int) []float64 {
	eec := make([]float64, machines)
	for i := range eec {
		eec[i] = 50 + 100*w.src.Float64()
	}
	return eec
}

// verdict is how one finished retrier op enters the books.
type verdict int

const (
	acked     verdict = iota // acknowledged: counted ok
	rejected                 // refused for good: counted as an error
	undecided                // no final answer: counted nowhere yet
)

// book is the driver's one piece of outcome accounting.  The retrier's
// error carries how its last round trip ended, and rmswire.After says
// whether that settles the op: a final answer moves ok or errs, anything
// else — shed to the last attempt, or sent with no reply — leaves the op
// undecided, because an earlier attempt may have been executed.
func book(err error, ok, errs *int64) verdict {
	var oe *rmswire.OpError
	switch {
	case err == nil:
		*ok++
		return acked
	case errors.As(err, &oe) && rmswire.After(oe.Delivery, oe.Status) != rmswire.Final:
		return undecided
	}
	*errs++
	return rejected
}

// attempt runs one op of the timed phase and books it; an undecided op
// is queued for the settle pass.  It reports whether the op was
// acknowledged.
func (w *worker) attempt(op func() error, ok, errs *int64) bool {
	switch book(op(), ok, errs) {
	case acked:
		return true
	case undecided:
		w.ambiguous++
		w.pending = append(w.pending, pendingOp{op: op, ok: ok, errs: errs})
	}
	return false
}

// doTask issues one submit (and, by ReportFraction, its outcome report),
// charging latency from chargeFrom — the call instant in closed loop,
// the scheduled arrival in open loop.
func (w *worker) doTask(cfg Config, acts []grid.Activity, rtl grid.TrustLevel, machines int, start, chargeFrom time.Time, seq int) {
	key := fmt.Sprintf("%s-w%d-%d", cfg.KeyPrefix, w.id, seq)
	eec := w.genEEC(machines)
	now := time.Since(start).Seconds()
	w.submitsIssued++
	var p *rmswire.PlacementInfo
	placed := w.attempt(func() (err error) {
		p, err = w.retrier.SubmitKeyed(key, w.clientID, acts, rtl, eec, now)
		return err
	}, &w.submitsOK, &w.submitErrors)
	lat := time.Since(chargeFrom)
	if !placed {
		// Rejected for good (the key was never placed: a placed key
		// always replays ok), or deferred to the settle pass.
		return
	}
	w.submitLat.Observe(uint64(lat))
	w.maxSubmit = max(w.maxSubmit, lat)
	if lat <= cfg.SLO {
		w.sloAttained++
	}
	if cfg.ReportFraction >= 1 || w.src.Float64() < cfg.ReportFraction {
		t0 := time.Now()
		id, rnow := p.ID, time.Since(start).Seconds()
		reported := w.attempt(func() error {
			return w.retrier.Report(id, cfg.Outcome, rnow)
		}, &w.reportsOK, &w.reportErrors)
		rLat := time.Since(t0)
		if !reported {
			return
		}
		w.reportLat.Observe(uint64(rLat))
		w.maxReport = max(w.maxReport, rLat)
	}
}

func (w *worker) runClosed(cfg Config, acts []grid.Activity, rtl grid.TrustLevel, machines int, start, deadline time.Time) {
	for seq := 0; ; seq++ {
		now := time.Now()
		if !now.Before(deadline) {
			return
		}
		w.doTask(cfg, acts, rtl, machines, start, now, seq)
	}
}

func (w *worker) runOpen(cfg Config, acts []grid.Activity, rtl grid.TrustLevel, machines int, start time.Time, arrivals <-chan time.Time) {
	for sched := range arrivals {
		if wait := time.Until(sched); wait > 0 {
			time.Sleep(wait)
		}
		// seq must be unique across workers pulling from one channel;
		// derive it from the worker-local issue count.
		w.doTask(cfg, acts, rtl, machines, start, sched, int(w.submitsIssued))
	}
}

// reconcile cross-checks client totals against the metrics of every
// daemon driven: one for a lone daemon, one per shard for a fleet, whose
// check names carry a "fleet " prefix.
//
// Every logical placement lives on exactly one daemon — for a fleet the
// ring owner, or the entry shard after a proven-safe failover — so the
// books must balance when summed.  Durable checks compare gauges each
// daemon restores from its own WAL (placed, idem_entries,
// open_placements), so they must hold even if a daemon was SIGKILLed and
// restarted mid-run.  Counter checks (placements, report_ok, overload
// replies) only hold within one daemon instance — counters reset on
// restart — and are skipped, with a note, when any start stamp changed
// between scrapes.
func reconcile(before, after []*rmswire.MetricsInfo, rep *Report) Reconcile {
	rec := Reconcile{OK: true}
	fleet, prefix := len(rep.FleetAddrs) > 0, ""
	if fleet {
		prefix = "fleet "
	}
	for i := range before {
		if after[i].StartUnixNanos != before[i].StartUnixNanos {
			rec.DaemonRestarted = true
		}
	}
	gaugeDelta := func(name string) (d int64) {
		for i := range before {
			d += after[i].Gauges[name] - before[i].Gauges[name]
		}
		return d
	}
	counterDelta := func(name string) (d int64) {
		for i := range before {
			d += int64(after[i].Counters[name]) - int64(before[i].Counters[name])
		}
		return d
	}
	add := func(name string, got, want int64, skipped bool, note string) {
		if !skipped && got != want {
			rec.OK = false
		}
		rec.Checks = append(rec.Checks, Check{
			Name: name, Got: got, Want: want, OK: got == want, Skipped: skipped, Note: note,
		})
	}
	if rep.Unresolved > 0 {
		rec.OK = false
		rec.Checks = append(rec.Checks, Check{
			Name: "settle", Got: rep.Unresolved, Want: 0, OK: false,
			Note: "ops still undecided after the settle pass; the accounting is not exact",
		})
	}

	// Durable anchors: valid across restarts (WAL replay restores them).
	add(prefix+"placed_delta == submits_ok",
		gaugeDelta(rmswire.MetricPlaced), rep.SubmitsOK, false,
		"durable: each key placed on exactly one daemon; placed survives restart via WAL replay")
	add(prefix+"idem_entries_delta == submits_ok",
		gaugeDelta(rmswire.MetricIdemEntries), rep.SubmitsOK, false,
		"durable: every submit travels under a fresh idempotency key, recorded exactly once")
	add(prefix+"open_placements_delta == submits_ok - reports_ok",
		gaugeDelta(rmswire.MetricOpenPlacements), rep.SubmitsOK-rep.ReportsOK, false,
		"durable: outcome reports close placements on whichever daemon placed them")

	// Volatile counters: one daemon instance only.
	restarted := rec.DaemonRestarted
	note := ""
	if restarted {
		note = "skipped: a daemon restarted between scrapes, counters reset"
	}
	add(prefix+"placements_total_delta == submits_ok",
		counterDelta(rmswire.MetricPlacements), rep.SubmitsOK, restarted, note)
	add(prefix+"report_ok_delta == reports_ok",
		counterDelta(rmswire.MetricReportOK), rep.ReportsOK, restarted, note)
	skipOver, overNote := restarted, note
	switch {
	case fleet:
		skipOver = true
		overNote = "skipped: forwarding relays and synthesizes overloads, so shard and client counts differ by design"
	case !restarted && counterDelta(rmswire.MetricShedConnLimit) > 0:
		skipOver = true
		overNote = "skipped: accept-time conn sheds race the peer's first write, so an overloaded frame may surface client-side as a transport error"
	}
	add("overload_replies_delta == client_overloads",
		counterDelta(rmswire.MetricOverloadReplies), int64(rep.Retrier.Overloads), skipOver, overNote)
	return rec
}

// Text renders the report for humans.
func (r *Report) Text() string {
	var b strings.Builder
	if len(r.FleetAddrs) > 0 {
		fmt.Fprintf(&b, "fleet: %d shard(s), workers pinned round-robin\n", len(r.FleetAddrs))
	}
	fmt.Fprintf(&b, "mode %s, %d clients", r.Mode, r.Clients)
	if r.Mode == ModeOpen {
		fmt.Fprintf(&b, ", %s arrivals @ %.0f rps target", r.Arrival, r.TargetRPS)
	}
	fmt.Fprintf(&b, ", %.2fs\n", r.DurationSec)
	fmt.Fprintf(&b, "submits: %d ok / %d issued (%d errors, %d ambiguous, %d settled, %d unresolved)\n",
		r.SubmitsOK, r.SubmitsIssued, r.SubmitErrors, r.Ambiguous, r.Settled, r.Unresolved)
	fmt.Fprintf(&b, "reports: %d ok (%d errors)\n", r.ReportsOK, r.ReportErrors)
	fmt.Fprintf(&b, "throughput: %.1f ops/s (%.1f per core, %d cores)\n",
		r.ThroughputRPS, r.PerCoreRPS, r.CPUs)
	p := r.SubmitLatency
	fmt.Fprintf(&b, "submit latency ms: p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  max %.3f (n=%d)\n",
		p.P50MS, p.P90MS, p.P95MS, p.P99MS, p.P999MS, p.MaxMS, p.N)
	if r.ReportLatency.N > 0 {
		q := r.ReportLatency
		fmt.Fprintf(&b, "report latency ms: p50 %.3f  p99 %.3f  max %.3f (n=%d)\n",
			q.P50MS, q.P99MS, q.MaxMS, q.N)
	}
	fmt.Fprintf(&b, "slo: %.0f%% of submits within %.0fms\n", 100*r.SLOAttained, r.SLOTargetMS)
	c := r.Retrier
	fmt.Fprintf(&b, "retrier: %d attempts, %d dials, %d overloads, %d transport errors, %d exhausted\n",
		c.Attempts, c.Dials, c.Overloads, c.TransportErrors, c.Exhausted)
	status := "OK"
	if !r.Reconcile.OK {
		status = "FAILED"
	}
	fmt.Fprintf(&b, "reconcile vs daemon metrics: %s", status)
	if r.Reconcile.DaemonRestarted {
		b.WriteString(" (daemon restarted mid-run; durable anchors only)")
	}
	b.WriteByte('\n')
	for _, ch := range r.Reconcile.Checks {
		mark := "ok  "
		switch {
		case ch.Skipped:
			mark = "skip"
		case !ch.OK:
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %-50s got %d want %d\n", mark, ch.Name, ch.Got, ch.Want)
	}
	return b.String()
}
