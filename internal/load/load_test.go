package load

import (
	"math"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/gridgen"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// startDaemon runs an in-process gridtrustd-equivalent server and
// returns its address.
func startDaemon(t *testing.T, tune func(*rmswire.Server)) string {
	addr, _ := startDaemonServer(t, tune)
	return addr
}

func startDaemonServer(t *testing.T, tune func(*rmswire.Server)) (string, *rmswire.Server) {
	t.Helper()
	top, err := gridgen.Generate(rng.New(7), gridgen.Spec{GridDomains: 3})
	if err != nil {
		t.Fatal(err)
	}
	trms, err := core.New(core.Config{
		Topology: top,
		TCWeight: 15,
		Trust:    trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := rmswire.NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		trms.Close()
	})
	return addr.String(), srv
}

func TestClosedLoopReconciles(t *testing.T) {
	addr := startDaemon(t, nil)
	rep, err := Run(Config{
		Addr:      addr,
		Clients:   4,
		Mode:      ModeClosed,
		Duration:  400 * time.Millisecond,
		Seed:      11,
		KeyPrefix: "t-closed",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SubmitsOK == 0 {
		t.Fatal("closed loop completed zero submits")
	}
	if rep.SubmitErrors != 0 || rep.Unresolved != 0 {
		t.Fatalf("errors=%d unresolved=%d against a healthy daemon", rep.SubmitErrors, rep.Unresolved)
	}
	if rep.ReportsOK != rep.SubmitsOK {
		t.Fatalf("report fraction 1 but %d reports for %d submits", rep.ReportsOK, rep.SubmitsOK)
	}
	if !rep.Reconcile.OK {
		t.Fatalf("reconcile failed:\n%s", rep.Text())
	}
	if rep.Reconcile.DaemonRestarted {
		t.Fatal("restart detected against a single daemon instance")
	}
	l := rep.SubmitLatency
	if l.N != int(rep.SubmitsOK) || l.P50MS <= 0 || l.P99MS < l.P50MS {
		t.Fatalf("implausible latency summary: %+v", l)
	}
	if rep.SLOAttained <= 0 || rep.SLOAttained > 1 {
		t.Fatalf("SLO attainment %v outside (0,1]", rep.SLOAttained)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput %v", rep.ThroughputRPS)
	}
}

func TestOpenLoopPacesArrivals(t *testing.T) {
	addr := startDaemon(t, nil)
	const rate = 200.0
	dur := 500 * time.Millisecond
	rep, err := Run(Config{
		Addr:      addr,
		Clients:   4,
		Mode:      ModeOpen,
		Rate:      rate,
		Arrival:   ArrivalPoisson,
		Duration:  dur,
		Seed:      13,
		KeyPrefix: "t-open",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconcile.OK {
		t.Fatalf("reconcile failed:\n%s", rep.Text())
	}
	// The arrival schedule, not daemon speed, sets the issue count:
	// expect roughly rate*dur arrivals (Poisson, so allow wide slack).
	want := rate * dur.Seconds()
	if f := float64(rep.SubmitsIssued); f < want*0.5 || f > want*1.5 {
		t.Fatalf("issued %d submits, want ≈%.0f", rep.SubmitsIssued, want)
	}
}

func TestBurstyArrivalDeterministicCount(t *testing.T) {
	// The bursty schedule is deterministic: same seed, same arrivals.
	addr := startDaemon(t, nil)
	run := func() int64 {
		rep, err := Run(Config{
			Addr:      addr,
			Clients:   2,
			Mode:      ModeOpen,
			Rate:      100,
			Arrival:   ArrivalBursty,
			Duration:  300 * time.Millisecond,
			Seed:      17,
			KeyPrefix: "t-burst",
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.SubmitsIssued
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("bursty arrival count not deterministic: %d vs %d", a, b)
	}
}

// TestReconcilesThroughOverload drives a deliberately under-provisioned
// daemon: sheds and retries must not break the books.
func TestReconcilesThroughOverload(t *testing.T) {
	// Attach a journal whose sync observer sleeps: every submit holds its
	// admission slot ≥1ms, so eight closed-loop clients against one slot
	// are guaranteed to collide and shed.
	addr, srv := startDaemonServer(t, func(s *rmswire.Server) {
		s.MaxInFlight = 1
		s.RetryAfter = time.Millisecond
	})
	log, rec, err := wal.Create(t.TempDir(), wal.Options{
		SyncObserver: func(uint64) { time.Sleep(time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Addr:        addr,
		Clients:     8,
		Mode:        ModeClosed,
		Duration:    400 * time.Millisecond,
		Seed:        19,
		KeyPrefix:   "t-overload",
		MaxAttempts: 30,
		BaseBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reconcile.OK {
		t.Fatalf("reconcile failed under overload:\n%s", rep.Text())
	}
	if rep.Retrier.Overloads == 0 {
		t.Fatal("under-provisioned daemon shed nothing; the test exercised no retries")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(Config{Addr: "x", Mode: "weird"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := Run(Config{Addr: "x", Mode: ModeOpen}); err == nil {
		t.Fatal("open loop without rate accepted")
	}
	if _, err := Run(Config{Addr: "x", Arrival: "storm"}); err == nil {
		t.Fatal("unknown arrival accepted")
	}
}

// TestLatencyFoldWeighsWorkersBySeen records two workers' latencies as
// Run does, into one shared histogram: one worker saw 200 000 ops at
// 1 ms, the other 10 000 at 10 ms.  The summary is the whole stream's:
// N and the mean (sum / N) are exact, 95 % of the ops took 1 ms, so p50,
// p90 and p95 lie in the 1 ms bucket and p99 in the 10 ms one.
func TestLatencyFoldWeighsWorkersBySeen(t *testing.T) {
	var h metrics.Histogram
	var wg sync.WaitGroup
	for _, w := range []struct {
		n   int
		lat time.Duration
	}{{200000, time.Millisecond}, {10000, 10 * time.Millisecond}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < w.n; i++ {
				h.Observe(uint64(w.lat))
			}
		}()
	}
	wg.Wait()
	got := summarize(h.Snapshot(), 10*time.Millisecond)
	if got.N != 210000 {
		t.Fatalf("n = %d, want 210000", got.N)
	}
	if want := 300000.0 / 210000; math.Abs(got.MeanMS-want) > 1e-12 {
		t.Errorf("mean_ms = %v, want sum / N = %v", got.MeanMS, want)
	}
	if got.MaxMS != 10 {
		t.Errorf("max_ms = %v, want 10", got.MaxMS)
	}
	// bucketMS is the range, in ms, of the bucket holding lat.
	bucketMS := func(lat time.Duration) (lo, hi float64) {
		var one metrics.Histogram
		one.Observe(uint64(lat))
		b := one.Snapshot().Buckets[0]
		return float64(b.Lo) / 1e6, float64(metrics.BucketHi(b.Idx)) / 1e6
	}
	for _, c := range []struct {
		name string
		got  float64
		lat  time.Duration
	}{
		{"p50", got.P50MS, time.Millisecond},
		{"p90", got.P90MS, time.Millisecond},
		{"p95", got.P95MS, time.Millisecond},
		{"p99", got.P99MS, 10 * time.Millisecond},
	} {
		if lo, hi := bucketMS(c.lat); c.got < lo || c.got > hi {
			t.Errorf("%s = %v ms, want it in the bucket of %v, [%v, %v] ms", c.name, c.got, c.lat, lo, hi)
		}
	}
}
