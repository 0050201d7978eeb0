package metrics

import (
	"encoding/json"
	"math"
	"sync"
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
