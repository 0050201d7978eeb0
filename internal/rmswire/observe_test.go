package rmswire

// observe_test.go covers the observability layer: the metrics wire op
// (counter/gauge/histogram snapshot with scrape-time gauges injected),
// its admission bypass, restart-detection fields on health, the
// Retrier's attempt accounting, and the conn_closing protocol fix that
// stops a connection-level shed from costing two retry attempts.

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// TestMetricsOpReconcile drives a known op mix through the wire and
// checks the daemon's counters, gauges and histograms agree with it
// exactly — the same reconciliation gridload performs at scale.
func TestMetricsOpReconcile(t *testing.T) {
	trms, _, client := newDaemon(t)
	acts := []grid.Activity{grid.ActCompute}
	eec := []float64{5, 7}
	var ids []uint64
	for i := 0; i < 3; i++ {
		p, err := client.Submit(0, acts, grid.LevelC, eec, float64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	for _, id := range ids[:2] {
		if err := client.Report(id, 5, 10); err != nil {
			t.Fatal(err)
		}
	}
	// One keyed submit plus its replay: a placement and an idem hit.
	if _, err := client.SubmitKeyed("obs-key", 0, acts, grid.LevelC, eec, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SubmitKeyed("obs-key", 0, acts, grid.LevelC, eec, 20); err != nil {
		t.Fatal(err)
	}

	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	wantCounters := map[string]uint64{
		MetricRequests:   7, // 3 submits + 2 reports + 2 keyed submits
		MetricSubmitOK:   5,
		MetricSubmitErr:  0,
		MetricReportOK:   2,
		MetricReportErr:  0,
		MetricPlacements: 4,
		MetricIdemHits:   1,
	}
	for name, want := range wantCounters {
		if got := m.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	wantGauges := map[string]int64{
		MetricPlaced:         int64(trms.Placed()),
		MetricOpenPlacements: 2, // 4 placements − 2 reported
		MetricIdemEntries:    1,
		MetricInFlight:       0,
		MetricDraining:       0,
		MetricConns:          1,
	}
	for name, want := range wantGauges {
		if got := m.Gauges[name]; got != want {
			t.Errorf("gauge %s = %d, want %d", name, got, want)
		}
	}
	if h := m.Histograms[MetricOpSubmitNS]; h == nil || h.Count != 5 {
		t.Errorf("submit latency histogram = %+v, want count 5", h)
	}
	if h := m.Histograms[MetricOpReportNS]; h == nil || h.Count != 2 {
		t.Errorf("report latency histogram = %+v, want count 2", h)
	}
	if m.StartUnixNanos == 0 || m.UptimeMS < 0 {
		t.Errorf("instance identity missing: start=%d uptime=%d", m.StartUnixNanos, m.UptimeMS)
	}
	if m.Seq != 1 {
		t.Errorf("first scrape seq = %d, want 1", m.Seq)
	}
	m2, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Seq != 2 {
		t.Errorf("second scrape seq = %d, want 2", m2.Seq)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.MetricsSeq != 2 {
		t.Errorf("health metrics_seq = %d, want 2", h.MetricsSeq)
	}
	if h.StartUnixNanos != m.StartUnixNanos {
		t.Errorf("health start %d != metrics start %d", h.StartUnixNanos, m.StartUnixNanos)
	}
	if h.TopologyMachines != 2 || h.TopologyClients != 1 {
		t.Errorf("topology %d machines / %d clients, want 2/1", h.TopologyMachines, h.TopologyClients)
	}
}

// TestMetricsOpBypassesAdmission pins that a saturated daemon still
// answers metrics scrapes, and that the shed it is refusing others with
// is itself visible in the scrape.
func TestMetricsOpBypassesAdmission(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if !srv.acquire(0) {
		t.Fatal("could not occupy the free slot")
	}
	defer srv.release()
	if _, err := client.Stats(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated stats returned %v, want overloaded", err)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatalf("metrics shed by admission control: %v", err)
	}
	if m.Counters[MetricShedInflight] != 1 || m.Counters[MetricOverloadReplies] != 1 {
		t.Fatalf("shed not visible in scrape: inflight=%d overload=%d",
			m.Counters[MetricShedInflight], m.Counters[MetricOverloadReplies])
	}
	if m.Gauges[MetricInFlight] != 1 {
		t.Fatalf("in_flight gauge = %d, want 1", m.Gauges[MetricInFlight])
	}
}

// TestRetrierCountersReconcile checks the client-side half of the
// reconciliation story: the Retrier's overload count matches the
// daemon's overload_replies_total when no connection-level sheds race.
func TestRetrierCountersReconcile(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxInFlight = 1
	srv.RetryAfter = 5 * time.Millisecond
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if !srv.acquire(0) {
		t.Fatal("acquire")
	}
	go func() {
		time.Sleep(60 * time.Millisecond)
		srv.release()
	}()
	r := NewRetrier(RetrierConfig{Addr: addr.String(), Seed: 3,
		BaseBackoff: 5 * time.Millisecond, MaxAttempts: 20})
	defer r.Close()
	if _, err := r.Stats(); err != nil {
		t.Fatalf("retrier gave up although the server recovered: %v", err)
	}
	c := r.Counters()
	if c.OK != 1 {
		t.Fatalf("OK = %d, want 1", c.OK)
	}
	if c.Overloads == 0 {
		t.Fatal("no overloads recorded although the server shed")
	}
	if c.TransportErrors != 0 {
		t.Fatalf("transport errors %d on a healthy connection", c.TransportErrors)
	}
	if c.Attempts != c.Overloads+c.OK {
		t.Fatalf("attempts %d != overloads %d + ok %d", c.Attempts, c.Overloads, c.OK)
	}
	if got := srv.Metrics().Counter(MetricOverloadReplies).Load(); got != c.Overloads {
		t.Fatalf("daemon overload replies %d != client overloads %d", got, c.Overloads)
	}
}

// TestConnClosingSavesAnAttempt is the regression test for the hidden
// retry-accounting bug: a server that sheds with one overloaded frame
// and then closes the connection used to cost the Retrier TWO attempts
// — the overload, plus a transport error discovering the dead cached
// connection.  With conn_closing announced, the Retrier redials
// immediately: exactly one attempt per shed, zero transport errors.
func TestConnClosingSavesAnAttempt(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const sheds = 2
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn, i int) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				var req Request
				if err := frame.Read(r, requestCodec.Frame(&req)); err != nil {
					return
				}
				if i < sheds {
					_ = frame.Write(conn, responseCodec.Frame(&Response{
						Status: StatusOverloaded, Error: "conn shed",
						RetryAfterMS: 1, ConnClosing: true,
					}))
					return // close: the frame said so
				}
				_ = frame.Write(conn, responseCodec.Frame(&Response{Status: StatusOK, Stats: &StatsInfo{}}))
			}(conn, i)
		}
	}()

	r := NewRetrier(RetrierConfig{Addr: ln.Addr().String(), Seed: 29,
		BaseBackoff: time.Millisecond, MaxAttempts: sheds + 1})
	defer r.Close()
	if _, err := r.Stats(); err != nil {
		t.Fatalf("stats after %d conn sheds: %v", sheds, err)
	}
	c := r.Counters()
	if c.TransportErrors != 0 {
		t.Fatalf("conn sheds burned %d attempts on transport errors", c.TransportErrors)
	}
	if c.Attempts != sheds+1 || c.Overloads != sheds || c.OK != 1 {
		t.Fatalf("attempts/overloads/ok = %d/%d/%d, want %d/%d/1",
			c.Attempts, c.Overloads, c.OK, sheds+1, sheds)
	}
	if c.Dials != sheds+1 {
		t.Fatalf("dials = %d, want %d (one per shed plus the final)", c.Dials, sheds+1)
	}
}

// TestDrainAnnouncesConnClosing pins that a response produced while the
// daemon drains carries conn_closing, and the client acts on it: the
// announced connection is dropped at once, so the next op dials instead
// of discovering a dead connection.
func TestDrainAnnouncesConnClosing(t *testing.T) {
	_, srv, client := newDaemon(t)
	srv.draining.Store(true)
	resp, _, err := client.RoundTrip(&Request{Op: OpStats}, nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("draining stats returned %v, want overloaded", err)
	}
	if !resp.ConnClosing {
		t.Fatal("a reply written while draining did not announce conn_closing")
	}
	srv.draining.Store(false)
	if _, err := client.Stats(); err != nil {
		t.Fatalf("op after the announced close: %v", err)
	}
	if dials, _ := client.conn.Dials(); dials != 2 {
		t.Fatalf("client dialled %d times, want 2: one connection per announcement", dials)
	}
}
