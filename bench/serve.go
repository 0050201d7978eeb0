package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/fleet"
	"gridtrust/internal/grid"
	"gridtrust/internal/gridgen"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
	"gridtrust/internal/workload"
)

// The daemon configuration below is cmd/gridtrustd's: its flag defaults
// are the constants here.  The topology is deployment inventory, not
// workload input, so its seed is the product default and --seed drives
// only the request stream; otherwise machine counts (and so frame sizes)
// would differ between seeds and no two seeds could be compared.
const (
	topologySeed = 7
	agents       = 2
	tcWeight     = 15
	compactEvery = 1024

	journalCycles = 2000 // the seeded journal serve_durable recovers
	// rssCycles is the amount of work peak_rss_mb is read at: the first
	// client to finish this many cycles samples the high-water mark.  A
	// fleet's idempotency table grows with every forwarded submit, so a
	// reading at exit would rise with throughput and with the window.
	rssCycles    = 50000
	requestRows  = 4096 // distinct EEC rows a client cycles through
	warmupCycles = 1500 // per client, before any window
)

var daemonTrust = trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.4}

// serveSpec describes one serve workload.
type serveSpec struct {
	name    string
	durable bool // journalled, fsync on, compact-every 1024
	shards  int  // 1 = plain daemon, 3 = fleet
	domains int  // grid domains of the topology
	reader  bool // second client reads stats/health/metrics
	starts  int  // cold starts timed as one set-up sample (>= 50 ms)
}

var serveSpecs = []serveSpec{
	{name: "serve_durable", durable: true, shards: 1, domains: 3, starts: 8},
	{name: "serve_mixed", shards: 1, domains: 3, reader: true, starts: 48},
	{name: "fleet3", shards: 3, domains: 12, starts: 16},
}

type shard struct {
	trms *core.TRMS
	srv  *rmswire.Server
	fl   *fleet.Fleet
	log  *wal.Log
	addr string
}

// rig is one running system under test plus the clients that drive it.
type rig struct {
	spec    serveSpec
	top     *grid.Topology
	toa     grid.ToA
	rows    *workload.Matrix
	shards  []*shard
	clients []*client
	cfg     fleet.Config
	seed    uint64

	basePlaced int                // placements restored by journal replay
	stages     map[string]float64 // set-up stage -> ms
	closed     bool

	rssOnce sync.Once
	rssMB   float64 // high-water mark at rssCycles, 0 until reached
}

func (r *rig) close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, c := range r.clients {
		_ = c.c.Close()
	}
	for _, s := range r.shards {
		s.srv.Close()
	}
	for _, s := range r.shards {
		if s.fl != nil {
			s.fl.Close()
		}
		if s.log != nil {
			_ = s.log.Close()
		}
		s.trms.Close()
	}
}

// reservePorts names n loopback addresses before their listeners
// exist: a fleet config is static, so peers must know each other's
// addresses up front.  The probes stay open until all are taken, or the
// kernel may hand the same port out twice.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// coldStart brings the workload's system up from nothing to its first
// acknowledged submit→report cycle, wiring each daemon exactly as
// cmd/gridtrustd does.  dir is the data directory of a durable daemon.
func coldStart(spec serveSpec, seed uint64, dir string, noSync bool) (_ *rig, err error) {
	r := &rig{spec: spec, stages: map[string]float64{}}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	stage := func(name string, began time.Time) {
		r.stages[name] += float64(time.Since(began)) / 1e6
	}

	if spec.shards > 1 {
		addrs, err := reservePorts(2 * spec.shards)
		if err != nil {
			return nil, err
		}
		for i := 0; i < spec.shards; i++ {
			r.cfg.Shards = append(r.cfg.Shards, fleet.ShardConfig{
				Name: fmt.Sprintf("s%d", i), Addr: addrs[2*i], TrustAddr: addrs[2*i+1],
			})
		}
	}

	for i := 0; i < spec.shards; i++ {
		began := time.Now()
		top, err := gridgen.Generate(rng.New(topologySeed), gridgen.Spec{GridDomains: spec.domains})
		if err != nil {
			return nil, err
		}
		stage("gridgen.generate_ms", began)
		r.top = top
		trms, err := core.New(core.Config{Topology: top, Agents: agents, TCWeight: tcWeight, Trust: daemonTrust})
		if err != nil {
			return nil, err
		}
		sh := &shard{trms: trms}
		r.shards = append(r.shards, sh)
		if sh.srv, err = rmswire.NewServer(trms); err != nil {
			return nil, err
		}
		if spec.durable {
			batch := sh.srv.Metrics().Histogram(rmswire.MetricWALBatchRecords)
			began = time.Now()
			log, rec, err := wal.Create(dir, wal.Options{
				NoSync:       noSync,
				SyncObserver: func(records uint64) { batch.Observe(records) },
			})
			if err != nil {
				return nil, err
			}
			stage("wal.recover_ms", began)
			sh.log = log
			began = time.Now()
			if err := sh.srv.AttachJournal(log, rec, compactEvery); err != nil {
				return nil, err
			}
			stage("rmswire.journal_replay_ms", began)
		}
		r.basePlaced += trms.Placed()
		listen := "127.0.0.1:0"
		if spec.shards > 1 {
			if sh.fl, err = fleet.Start(r.cfg, r.cfg.Shards[i].Name, sh.srv, trms); err != nil {
				return nil, err
			}
			listen = r.cfg.Shards[i].Addr
		}
		bound, err := sh.srv.ListenAndServe(listen)
		if err != nil {
			return nil, err
		}
		sh.addr = bound.String()
	}

	r.toa = grid.ToA{Activities: []grid.Activity{commonActivity(r.top)}}
	began := time.Now()
	machines := len(r.top.Machines())
	r.rows, err = workload.Generate(rng.New(seed), requestRows, machines, workload.LoLo, workload.Inconsistent)
	if err != nil {
		return nil, err
	}
	stage("workload.generate_ms", began)

	r.seed = seed
	for i := 0; i < nproc; i++ {
		entry := i % spec.shards
		conn, err := rmswire.Dial(r.shards[entry].addr)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, &client{
			r: r, c: conn, index: i, entry: entry,
			reader: spec.reader && i == nproc-1,
			// Offset the clients so they do not submit the same rows in step.
			next: i * requestRows / nproc,
		})
	}
	if _, err := r.clients[0].c.Health(); err != nil {
		return nil, err
	}
	if err := r.clients[0].cycle(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// commonActivity picks the activity most resource domains support, so a
// submit always finds an eligible machine.
func commonActivity(top *grid.Topology) grid.Activity {
	best, bestN := grid.ActCompute, -1
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		n := 0
		for _, rd := range top.ResourceDomains() {
			if _, ok := rd.Supported[a]; ok {
				n++
			}
		}
		if n > bestN {
			best, bestN = a, n
		}
	}
	return best
}

// request derives request i of the stream from the seed alone, so the
// traced pass can replay any request id against the shadow layers.  The
// client id cycles through the whole topology: on a fleet most submits
// then belong to another shard than the one they enter.
func (r *rig) request(i int) (core.Task, float64) {
	x := r.seed + uint64(i)*0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	clients := r.top.Clients()
	span := uint64(grid.MaxRequirable-grid.MinRequirable) + 1
	return core.Task{
		Client: clients[i%len(clients)].ID,
		ToA:    r.toa,
		RTL:    grid.MinRequirable + grid.TrustLevel(x%span),
		EEC:    r.rows.RowView(i % requestRows),
	}, trust.MinScore + (trust.MaxScore-trust.MinScore)*float64(x>>11)/(1<<53)
}

// client is one closed-loop driver on one connection.  A writer does
// submit→report cycles; the reader does stats→health→metrics cycles.
type client struct {
	r      *rig
	c      *rmswire.Client
	index  int // position among the rig's clients
	entry  int // shard the connection is pinned to
	reader bool
	next   int

	cycles int64 // cycles finished since cold start
	acked  int64 // submits acknowledged since cold start
	tally        // of the current drive
	err    error
}

// tally is what one client, or all of them together, measured in one
// drive.
type tally struct {
	ops, submits, forwarded int64 // acknowledged round trips, submits, submits another shard placed
	cycleH, submitH, readH  hist
	localH, fwdH            hist // submit latency by where the placement ran
	statsH, healthH, scrH   hist
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.submits += o.submits
	t.forwarded += o.forwarded
	for _, h := range [][2]*hist{
		{&t.cycleH, &o.cycleH}, {&t.submitH, &o.submitH}, {&t.readH, &o.readH}, {&t.localH, &o.localH},
		{&t.fwdH, &o.fwdH}, {&t.statsH, &o.statsH}, {&t.healthH, &o.healthH}, {&t.scrH, &o.scrH},
	} {
		h[0].merge(h[1])
	}
}

// opsPerCycle is what one cycle contributes to ops_per_s.
func (c *client) opsPerCycle() float64 {
	if c.reader {
		return 3
	}
	return 2
}

func (c *client) cycle(tr *tracer) error {
	if c.reader {
		return c.readCycle(tr)
	}
	r := c.r
	i := c.next
	c.next++
	task, outcome := r.request(i)
	now := float64(i)

	t0 := time.Now()
	p, err := c.c.Submit(task.Client, task.ToA.Activities, task.RTL, task.EEC, now)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("submit %d: %w", i, err)
	}
	err = c.c.Report(p.ID, outcome, now)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("report %d: %w", p.ID, err)
	}
	c.ops += 2
	c.submits++
	c.acked++
	c.submitH.record(t1.Sub(t0))
	c.cycleH.record(t2.Sub(t0))
	if int(p.ID>>rmswire.ShardIDShift) != c.entry {
		c.forwarded++
		c.fwdH.record(t1.Sub(t0))
	} else {
		c.localH.record(t1.Sub(t0))
	}
	if tr != nil {
		req := int64(c.index)<<32 | int64(i)
		root := tr.add("cycle", 0, req, t0, t2)
		tr.add("rmswire.submit", root, req, t0, t1)
		tr.add("rmswire.report", root, req, t1, t2)
	}
	return nil
}

func (c *client) readCycle(tr *tracer) error {
	t0 := time.Now()
	if _, err := c.c.Stats(); err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := c.c.Health(); err != nil {
		return err
	}
	t2 := time.Now()
	if _, err := c.c.Metrics(); err != nil {
		return err
	}
	t3 := time.Now()
	c.ops += 3
	c.statsH.record(t1.Sub(t0))
	c.healthH.record(t2.Sub(t1))
	c.scrH.record(t3.Sub(t2))
	for _, d := range []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)} {
		c.readH.record(d)
	}
	c.cycleH.record(t3.Sub(t0))
	if tr != nil {
		req := int64(c.index)<<32 | int64(c.next)
		c.next++
		root := tr.add("read_cycle", 0, req, t0, t3)
		tr.add("rmswire.stats", root, req, t0, t1)
		tr.add("rmswire.health", root, req, t1, t2)
		tr.add("rmswire.metrics", root, req, t2, t3)
	}
	return nil
}

// drive runs every client of the rig, one goroutine each, until the
// deadline passes or each has done cycles cycles, and returns the wall
// time it took.  Each client's tally covers exactly this call.
func (r *rig) drive(d time.Duration, cycles int, tr *tracer) (time.Duration, error) {
	var wg sync.WaitGroup
	began := time.Now()
	deadline := began.Add(d)
	for _, c := range r.clients {
		c.tally = tally{}
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for n := 0; c.err == nil; n++ {
				if cycles > 0 && n >= cycles {
					return
				}
				if cycles == 0 && !time.Now().Before(deadline) {
					return
				}
				c.err = c.cycle(tr)
				if c.cycles++; c.cycles == rssCycles {
					r.rssOnce.Do(func() { r.rssMB = peakRSSMB() })
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(began)
	for _, c := range r.clients {
		if c.err != nil {
			return wall, c.err
		}
	}
	return wall, nil
}

// window is what one timed window measured, all clients together; its
// cycleH holds the writers' cycles only.
type window struct {
	tally
	wall    time.Duration
	opsPerS float64 // Σ clients ops-per-cycle ÷ median cycle time
}

func (r *rig) measure(d time.Duration, tr *tracer) (*window, error) {
	wall, err := r.drive(d, 0, tr)
	if err != nil {
		return nil, err
	}
	w := &window{wall: wall}
	for _, c := range r.clients {
		if c.cycleH.n > 0 {
			w.opsPerS += c.opsPerCycle() / (c.cycleH.quantile(0.5) / 1e9)
		}
		t := c.tally
		if c.reader {
			t.cycleH = hist{}
		}
		w.add(&t)
	}
	return w, nil
}

// counters sums every registry counter across the rig's shards.
func (r *rig) counters() map[string]uint64 {
	sum := map[string]uint64{}
	for _, s := range r.shards {
		for name, v := range s.srv.Metrics().Snapshot().Counters {
			sum[name] += v
		}
	}
	return sum
}

// forwardErrors adds up the per-peer counters of everything that can go
// wrong between shards.
func forwardErrors(counters map[string]uint64) (n uint64) {
	for name, v := range counters {
		for _, prefix := range []string{"fleet_forward_relay_err_", "fleet_forward_fail_", "fleet_forward_failover_", "fleet_gossip_err_"} {
			if strings.HasPrefix(name, prefix) {
				n += v
			}
		}
	}
	return n
}

func (r *rig) histogram(name string) *metrics.HistSnapshot {
	sum := &metrics.HistSnapshot{}
	for _, s := range r.shards {
		sum.Merge(s.srv.Metrics().Histogram(name).Snapshot())
	}
	return sum
}

// reconcile checks the clients' books against the daemons': every
// acknowledged submit is exactly one placement, fleet-wide, and nothing
// errored, was shed, failed to forward or failed over on the way.
func (r *rig) reconcile() error {
	var acked int64
	for _, c := range r.clients {
		acked += c.acked
	}
	placed := -r.basePlaced
	for _, s := range r.shards {
		placed += s.trms.Placed()
	}
	if int64(placed) != acked {
		return fmt.Errorf("books: %d submits acknowledged, daemons placed %d", acked, placed)
	}
	counters := r.counters()
	for _, name := range []string{rmswire.MetricPlacements, rmswire.MetricReportOK} {
		if got := counters[name]; int64(got) != acked {
			return fmt.Errorf("books: %d cycles acknowledged, %s = %d", acked, name, got)
		}
	}
	for _, name := range []string{rmswire.MetricSubmitErr, rmswire.MetricReportErr, rmswire.MetricOverloadReplies, rmswire.MetricIdemHits} {
		if got := counters[name]; got != 0 {
			return fmt.Errorf("books: %s = %d, want 0", name, got)
		}
	}
	if got := forwardErrors(counters); got != 0 {
		return fmt.Errorf("books: %d forwards relayed an error, failed or failed over", got)
	}
	for _, s := range r.shards {
		if deg, cause := s.srv.Degraded(); deg {
			return fmt.Errorf("daemon degraded: %s", cause)
		}
	}
	return nil
}

// seedJournal writes the journal serve_durable recovers from: a daemon
// on an empty directory serves journalCycles cycles and is closed
// without a final checkpoint, leaving snapshot + tail as a killed
// daemon would.  fsync is off: the bytes are the same and this is
// preparation, not measurement.
func seedJournal(spec serveSpec, seed uint64, dir string) error {
	r, err := coldStart(spec, seed, dir, true)
	if err != nil {
		return err
	}
	defer r.close()
	c := r.clients[0]
	for n := 1; n < journalCycles; n++ {
		if err := c.cycle(nil); err != nil {
			return err
		}
	}
	return r.reconcile()
}

func copyDir(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := copyFile(filepath.Join(from, e.Name()), filepath.Join(to, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
