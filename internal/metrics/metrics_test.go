package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gridtrust/internal/rng"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("Counter lookup is not idempotent")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if r.Gauge("depth") != g {
		t.Fatal("Gauge lookup is not idempotent")
	}
}

func TestSnapshotSeqMonotonicAndDetached(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if s1.Seq != 1 || s2.Seq != 2 {
		t.Fatalf("seq = %d, %d; want 1, 2", s1.Seq, s2.Seq)
	}
	if r.Seq() != 2 {
		t.Fatalf("Seq() = %d, want 2", r.Seq())
	}
	s1.Counters["a"] = 999
	if got := r.Counter("a").Load(); got != 1 {
		t.Fatalf("mutating a snapshot touched the registry: %d", got)
	}
}

// TestBucketLayout pins the bucket function: indices are monotone in the
// value, every bucket's Lo/Hi bracket exactly the values mapping to it,
// and the relative width stays within ~25% above the exact range.
func TestBucketLayout(t *testing.T) {
	if bucketIndex(0) != 0 || bucketIndex(1) != 1 || bucketIndex(3) != 3 || bucketIndex(4) != 4 {
		t.Fatalf("small-value buckets misplaced: %d %d %d %d",
			bucketIndex(0), bucketIndex(1), bucketIndex(3), bucketIndex(4))
	}
	if idx := bucketIndex(math.MaxUint64); idx != NumBuckets-1 {
		t.Fatalf("max value lands in bucket %d, want %d", idx, NumBuckets-1)
	}
	for idx := 0; idx < NumBuckets; idx++ {
		lo, hi := BucketLo(idx), BucketHi(idx)
		if bucketIndex(lo) != idx {
			t.Fatalf("BucketLo(%d)=%d maps to bucket %d", idx, lo, bucketIndex(lo))
		}
		if bucketIndex(hi) != idx {
			t.Fatalf("BucketHi(%d)=%d maps to bucket %d", idx, hi, bucketIndex(hi))
		}
		if idx > 0 && lo > 0 && BucketHi(idx-1) != lo-1 {
			t.Fatalf("gap between bucket %d and %d", idx-1, idx)
		}
		if idx >= 4 && idx < NumBuckets-1 {
			width := float64(hi-lo+1) / float64(lo)
			if width > 0.26 {
				t.Fatalf("bucket %d relative width %.3f > 0.26", idx, width)
			}
		}
	}
	// Monotone: a larger value never lands in a smaller bucket.
	src := rng.New(11)
	prevV, prevIdx := uint64(0), 0
	for i := 0; i < 10000; i++ {
		v := src.Uint64() >> uint(src.Intn(64))
		if v >= prevV {
			if got := bucketIndex(v); got < prevIdx {
				t.Fatalf("bucketIndex not monotone: %d->%d for %d->%d", prevIdx, got, prevV, v)
			}
		}
		prevV, prevIdx = v, bucketIndex(v)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 500500 {
		t.Fatalf("count=%d sum=%d", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 500.5 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 500}, {0.95, 950}, {0.99, 990}, {0, 1}, {1, 1000},
	} {
		got := s.Quantile(tc.q)
		if math.Abs(got-tc.want)/tc.want > 0.26 {
			t.Errorf("q%.2f = %.1f, want within 26%% of %.1f", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN((&HistSnapshot{}).Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

// TestHistogramQuantileBracketsTheRank is Quantile's contract over
// random multisets: small exact values, exponential latencies around
// 1 ms, and a few values repeated many times.  With r = q·(n−1), the
// estimate lies between the low edge of the bucket holding x₍⌊r⌋₎ and
// the high edge of the bucket holding x₍⌈r⌉₎; Count, Sum and Mean are
// exact.
func TestHistogramQuantileBracketsTheRank(t *testing.T) {
	src := rng.New(49)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + src.Intn(400)
		var draw func() uint64
		switch trial % 3 {
		case 0:
			draw = func() uint64 { return uint64(src.Intn(8)) }
		case 1:
			draw = func() uint64 { return uint64(src.Exponential(1e-6)) }
		default:
			ties := make([]uint64, 1+src.Intn(4))
			for i := range ties {
				ties[i] = uint64(src.Exponential(1e-6))
			}
			draw = func() uint64 { return ties[src.Intn(len(ties))] }
		}
		var h Histogram
		xs := make([]uint64, n)
		sum := uint64(0)
		for i := range xs {
			xs[i] = draw()
			sum += xs[i]
			h.Observe(xs[i])
		}
		slices.Sort(xs)
		s := h.Snapshot()
		if s.Count != uint64(n) || s.Sum != sum || s.Mean() != float64(sum)/float64(n) {
			t.Fatalf("trial %d: count %d sum %d mean %v, want %d, %d, %v",
				trial, s.Count, s.Sum, s.Mean(), n, sum, float64(sum)/float64(n))
		}
		for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1, src.Float64()} {
			r := q * float64(n-1)
			lo := float64(BucketLo(bucketIndex(xs[int(math.Floor(r))])))
			hi := float64(BucketHi(bucketIndex(xs[int(math.Ceil(r))])))
			if got := s.Quantile(q); got < lo || got > hi {
				t.Fatalf("trial %d (n=%d): q%v = %v, want in [%v, %v]", trial, n, q, got, lo, hi)
			}
		}
	}
}

// TestHistogramMergeOrderIndependent is the merge property test: a value
// stream split across k histograms and merged in any order yields exactly
// the same buckets, count and sum as one histogram observing everything.
func TestHistogramMergeOrderIndependent(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		k := 2 + src.Intn(6)
		parts := make([]*Histogram, k)
		for i := range parts {
			parts[i] = &Histogram{}
		}
		var whole Histogram
		n := 200 + src.Intn(2000)
		for i := 0; i < n; i++ {
			v := src.Uint64() >> uint(src.Intn(64))
			parts[src.Intn(k)].Observe(v)
			whole.Observe(v)
		}
		// Merge the parts in a random order.
		order := src.Perm(k)
		merged := &HistSnapshot{}
		for _, idx := range order {
			merged.Merge(parts[idx].Snapshot())
		}
		want := whole.Snapshot()
		if merged.Count != want.Count || merged.Sum != want.Sum {
			t.Fatalf("trial %d: merged count/sum %d/%d, want %d/%d",
				trial, merged.Count, merged.Sum, want.Count, want.Sum)
		}
		if len(merged.Buckets) != len(want.Buckets) {
			t.Fatalf("trial %d: %d buckets, want %d", trial, len(merged.Buckets), len(want.Buckets))
		}
		for i := range want.Buckets {
			if merged.Buckets[i] != want.Buckets[i] {
				t.Fatalf("trial %d bucket %d: %+v want %+v", trial, i, merged.Buckets[i], want.Buckets[i])
			}
		}
	}
}

// TestRegistryConcurrent hammers counters and a histogram from many
// goroutines while a scraper snapshots concurrently; run under -race in
// ci.sh.  Final totals must be exact, and every intermediate snapshot
// must be internally plausible (count never exceeds the final total).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 5000
	var writerWG sync.WaitGroup
	started := make(chan struct{}) // closed after the first scrape, so the two sides always overlap
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			<-started
			c := r.Counter("ops")
			h := r.Histogram("lat")
			g := r.Gauge("depth")
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(uint64(w*perWriter + i))
				g.Add(1)
				g.Add(-1)
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan int, 1)
	go func() { // concurrent scrape loop
		n := 0
		for {
			select {
			case <-stop:
				scraped <- n
				return
			default:
			}
			s := r.Snapshot()
			if n++; n == 1 {
				close(started)
			}
			if s.Counters["ops"] > writers*perWriter {
				t.Error("snapshot counter exceeds possible total")
			}
		}
	}()
	writerWG.Wait()
	close(stop)
	if nScrapes := <-scraped; nScrapes == 0 {
		t.Fatal("scraper never ran")
	}
	s := r.Snapshot()
	if s.Counters["ops"] != writers*perWriter {
		t.Fatalf("ops = %d, want %d", s.Counters["ops"], writers*perWriter)
	}
	hs := s.Histograms["lat"]
	if hs.Count != writers*perWriter {
		t.Fatalf("hist count = %d, want %d", hs.Count, writers*perWriter)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != hs.Count {
		t.Fatalf("bucket sum %d != count %d after quiescence", bucketSum, hs.Count)
	}
	if s.Gauges["depth"] != 0 {
		t.Fatalf("gauge = %d, want 0", s.Gauges["depth"])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h").Observe(1500)
	blob, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 3 || back.Gauges["g"] != -2 || back.Histograms["h"].Count != 1 {
		t.Fatalf("round trip mangled snapshot: %+v", back)
	}
	if got := back.CounterNames(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("CounterNames = %v", got)
	}
}

// TestAppendJSONIsTheSnapshotMarshalled: the scrape the registry writes
// is json.Marshal of the Snapshot it would have taken, func metrics
// included, for registries with and without each kind and for names
// json.Marshal must quote.
func TestAppendJSONIsTheSnapshotMarshalled(t *testing.T) {
	full := NewRegistry()
	for i, name := range []string{"b", "a", `q"uote`, "<tag>", "a&b", "é", "zz", "\x7f"} {
		full.Counter(name).Add(uint64(i * 1000))
		full.Gauge(name).Set(int64(-i))
	}
	full.CounterFunc("m_func", func() uint64 { return 1<<64 - 1 })
	full.GaugeFunc("m_func", func() int64 { return -1 << 63 })
	for _, name := range []string{"lat", "empty", "a<b"} {
		h := full.Histogram(name)
		if name == "empty" {
			continue
		}
		for v := uint64(0); v < 1<<20; v = v*3 + 1 {
			h.Observe(v)
		}
	}
	noHists := NewRegistry()
	noHists.Counter("ops").Inc()
	noHists.GaugeFunc("depth", func() int64 { return 3 })
	onlyHists := NewRegistry()
	onlyHists.Histogram("lat").Observe(1500)
	for name, r := range map[string]*Registry{"full": full, "no histograms": noHists, "only histograms": onlyHists, "empty": NewRegistry()} {
		got := r.AppendJSON([]byte("prefix"))
		snap := r.Snapshot()
		if snap.Seq != r.Seq() {
			t.Fatalf("%s: seq %d after a snapshot, registry says %d", name, snap.Seq, r.Seq())
		}
		snap.Seq--
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("%s: AppendJSON wrote\n%s\nwant prefix and\n%s", name, got, want)
		}
	}
}

func TestAppendJSONAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops").Add(7)
	r.GaugeFunc("depth", func() int64 { return 3 })
	r.Histogram("lat").Observe(1500)
	buf := r.AppendJSON(nil)
	if got := testing.AllocsPerRun(100, func() { buf = r.AppendJSON(buf[:0]) }); got != 0 {
		t.Fatalf("AppendJSON into a buffer with room allocates %v times, want 0", got)
	}
}

// TestFuncNamesAreTheirOwn: a name registered as a func cannot also be a
// handle of that kind, nor a second func, whichever comes first; the
// kinds keep their own names.
func TestFuncNamesAreTheirOwn(t *testing.T) {
	refused := func(what string, register func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s was not refused", what)
			}
		}()
		register()
	}
	r := NewRegistry()
	r.Counter("c")
	refused("a counter func over a counter", func() { r.CounterFunc("c", func() uint64 { return 1 }) })
	r.CounterFunc("cf", func() uint64 { return 1 })
	refused("a counter over a counter func", func() { r.Counter("cf") })
	refused("a second counter func", func() { r.CounterFunc("cf", func() uint64 { return 2 }) })
	r.Gauge("g")
	refused("a gauge func over a gauge", func() { r.GaugeFunc("g", func() int64 { return 1 }) })
	r.GaugeFunc("gf", func() int64 { return 1 })
	refused("a gauge over a gauge func", func() { r.Gauge("gf") })
	r.GaugeFunc("c", func() int64 { return 5 }) // a counter's name is free among gauges
	if s := r.Snapshot(); s.Counters["cf"] != 1 || s.Gauges["gf"] != 1 || s.Gauges["c"] != 5 || len(s.Counters) != 2 {
		t.Fatalf("refusals changed the registry: %+v", s)
	}
}

// TestPerScrapeReadsOnce: funcs that split one reading take it once per
// scrape, by either path, and again at the next scrape.
func TestPerScrapeReadsOnce(t *testing.T) {
	r := NewRegistry()
	reads := 0
	pair := PerScrape(r, func() [2]int64 {
		reads++
		return [2]int64{int64(reads), -int64(reads)}
	})
	r.GaugeFunc("first", func() int64 { return pair()[0] })
	r.GaugeFunc("second", func() int64 { return pair()[1] })
	if s := r.Snapshot(); reads != 1 || s.Gauges["first"] != 1 || s.Gauges["second"] != -1 {
		t.Fatalf("after one snapshot: %d reads, gauges %v", reads, s.Gauges)
	}
	if got := string(r.AppendJSON(nil)); reads != 2 || got != `{"seq":2,"counters":{},"gauges":{"first":2,"second":-2}}` {
		t.Fatalf("after a second scrape: %d reads, %s", reads, got)
	}
}

// TestScrapesBesideRegistration: scrapes by both paths run at once and
// beside registration, which replaces the lists they read, and every
// scrape is whole JSON holding each name registered before it began
// (run under -race).
func TestScrapesBesideRegistration(t *testing.T) {
	r := NewRegistry()
	var reads atomic.Int64
	shared := PerScrape(r, func() int64 { return reads.Add(1) })
	r.GaugeFunc("shared_a", shared)
	r.GaugeFunc("shared_b", shared)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("w%d_%03d", w, i)
				r.Counter(name).Inc()
				buf = r.AppendJSON(buf[:0])
				var snap Snapshot
				if err := json.Unmarshal(buf, &snap); err != nil {
					t.Errorf("scrape is not JSON: %v", err)
					return
				}
				if snap.Counters[name] != 1 || snap.Gauges["shared_a"] == 0 {
					t.Errorf("scrape after registering %s: %v", name, snap.Counters[name])
					return
				}
				_ = r.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if s := r.Snapshot(); len(s.Counters) != 600 {
		t.Fatalf("%d counters after 600 registrations", len(s.Counters))
	}
}
