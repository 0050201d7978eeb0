package rmswire

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"sync"
	"testing"

	"gridtrust/internal/core"
	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/trust"
)

// scrapeLine asks c for a scrape as a relayed line and returns the reply
// line as it came off the wire.
func scrapeLine(t *testing.T, c *Client) []byte {
	t.Helper()
	relay := &frame.Line{Bytes: []byte(`{"op":"metrics"}`)}
	if _, _, err := c.RoundTrip(nil, relay); err != nil {
		t.Fatal(err)
	}
	return relay.Bytes
}

// checkScrapeLine holds a scrape line to responseCodec.Append of the
// Response a Snapshot builds, taken now, with the line's seq and uptime
// (the two things a later scrape cannot repeat).
func checkScrapeLine(t *testing.T, srv *Server, line []byte, closing bool) {
	t.Helper()
	var got Response
	if err := json.Unmarshal(line, &got); err != nil || got.Metrics == nil {
		t.Fatalf("scrape line %s: %v", line, err)
	}
	snap := srv.Metrics().Snapshot()
	if snap.Seq != got.Metrics.Seq+1 {
		t.Fatalf("snapshot after the scrape has seq %d, want %d", snap.Seq, got.Metrics.Seq+1)
	}
	snap.Seq = got.Metrics.Seq
	want, err := responseCodec.Append(nil, &Response{Status: StatusOK, ConnClosing: closing, Metrics: &MetricsInfo{
		Snapshot:       *snap,
		UptimeMS:       got.Metrics.UptimeMS,
		StartUnixNanos: srv.startUnixNanos,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want) {
		t.Fatalf("scrape line\n%s\nwant what the Snapshot-built reply encodes to\n%s", line, want)
	}
}

func submitOne(t *testing.T, c *Client) {
	t.Helper()
	if _, err := c.SubmitKeyed("scrape-1", 0, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestScrapeLineIsTheSnapshotReply: the reply the registry writes is the
// reply the snapshot's maps encoded to, on a plain daemon (with names
// json.Marshal must quote), a journalled one and a draining one.  The
// fleet shard, with its per-peer counters, is internal/fleet's
// TestScrapeLineOnAFleetShard.
func TestScrapeLineIsTheSnapshotReply(t *testing.T) {
	t.Run("plain", func(t *testing.T) {
		_, srv, client := newDaemon(t)
		submitOne(t, client)
		srv.Metrics().Counter(`a<b&c>`).Add(3)
		srv.Metrics().GaugeFunc(`q"uote`, func() int64 { return -7 })
		checkScrapeLine(t, srv, scrapeLine(t, client), false)
	})
	t.Run("journalled", func(t *testing.T) {
		srv, client, stop := startJournaled(t, t.TempDir(), 0)
		defer stop()
		submitOne(t, client)
		line := scrapeLine(t, client)
		if !bytes.Contains(line, []byte(`"wal_appends_total":1,`)) || !bytes.Contains(line, []byte(`"journal_next_seq":`)) {
			t.Fatalf("journalled scrape lacks the WAL's func metrics: %s", line)
		}
		checkScrapeLine(t, srv, line, false)
	})
	t.Run("draining", func(t *testing.T) {
		_, srv, client := newDaemon(t)
		submitOne(t, client)
		srv.draining.Store(true)
		// The request loop's own call: over the wire the connection would
		// close under the snapshot's conns gauge.
		var (
			req   = Request{Op: OpMetrics}
			resp  Response
			relay frame.Line
		)
		line, closing := srv.answer(nil, &req, &resp, &relay)
		if !closing || !bytes.HasSuffix(line, []byte(`,"conn_closing":true}`)) {
			t.Fatalf("draining scrape: closing=%v line %s", closing, line)
		}
		checkScrapeLine(t, srv, line, true)
	})
}

// TestScrapeWriteAllocatesNothing pins the server's scrape write, func
// metrics and histogram buckets included, at no allocation once the
// connection's relay line has grown to a scrape.
func TestScrapeWriteAllocatesNothing(t *testing.T) {
	srv, client, stop := startJournaled(t, t.TempDir(), 0)
	defer stop()
	submitOne(t, client)
	var (
		req   = Request{Op: OpMetrics}
		resp  Response
		relay frame.Line
	)
	srv.answer(nil, &req, &resp, &relay)
	if got := testing.AllocsPerRun(200, func() { srv.answer(nil, &req, &resp, &relay) }); got != 0 {
		t.Fatalf("a scrape write allocates %v times, want 0", got)
	}
}

// pipeClient serves a new daemon over one side of a net.Pipe and returns
// a Client over the other, with no deadlines (a pipe's deadline is a
// timer).
func pipeClient(t *testing.T) *Client {
	t.Helper()
	trms, err := core.New(core.Config{Topology: journalTopology(t), Trust: trust.Config{Alpha: 1, Beta: 0, Smoothing: 1}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = -1
	t.Cleanup(func() {
		srv.Close()
		trms.Close()
	})
	near, far := net.Pipe()
	go srv.ServeConn(far)
	c := NewClient(frame.Wrap(near))
	t.Cleanup(func() { c.Close() })
	return c
}

// TestClientRoundTripAllocations: a Client owns its request, its reply
// and their bound frames, and the op and the statuses decode to their
// constants, so a health round trip allocates only the HealthInfo on
// each side of the pipe.
func TestClientRoundTripAllocations(t *testing.T) {
	c := pipeClient(t)
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := c.Health(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("a health round trip allocates %v times, want at most 2", got)
	}
}

// TestClientConcurrentCallers: callers sharing one Client share its
// request and reply values, one round trip at a time, and each gets its
// own answer (run under -race).
func TestClientConcurrentCallers(t *testing.T) {
	_, srv, client := newDaemon(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch (w + i) % 3 {
				case 0:
					if h, err := client.Health(); err != nil || h.Status != "ok" {
						t.Errorf("health: %+v %v", h, err)
					}
				case 1:
					if s, err := client.Stats(); err != nil || s == nil {
						t.Errorf("stats: %v", err)
					}
				default:
					if m, err := client.Metrics(); err != nil || m.Counters[MetricRequests] == 0 && m.Seq == 0 {
						t.Errorf("metrics: %+v %v", m, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if n := srv.Metrics().Counter(MetricRequests).Load(); n == 0 {
		t.Fatal("no stats request reached the server")
	}
}

// loadedScrape is the line the registry of 1579d5c wrote after 20 s of
// the benchmark's serve_mixed workload (seed 7): 5.4 KB, 157 histogram
// buckets, every counter and gauge a daemon without a journal serves.
const loadedScrape = "testdata/scrape_1579d5c.json"

// BenchmarkScrape reads the scrape's parts on one journalled daemon: the
// server's line write, the client's decode of that line and of a loaded
// daemon's line, and a scrape round trip over loopback beside a health
// round trip.
func BenchmarkScrape(b *testing.B) {
	srv, client, stop := startJournaled(b, b.TempDir(), 0)
	defer stop()
	for i := 0; i < 20; i++ {
		if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110}, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	var (
		req   = Request{Op: OpMetrics}
		resp  Response
		relay frame.Line
	)
	line, _ := srv.answer(nil, &req, &resp, &relay)
	line = bytes.Clone(line)
	b.Run("line", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.answer(nil, &req, &resp, &relay)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			if err := responseCodec.Parse(line, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	loaded, err := os.ReadFile(loadedScrape)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode-loaded", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(loaded)))
		for i := 0; i < b.N; i++ {
			if err := responseCodec.Parse(loaded, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("loopback", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.Metrics(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("health", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := client.Health(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
