package rmswire

import (
	"encoding/json"
	"testing"

	"gridtrust/internal/frame"
	"gridtrust/internal/metrics"
	"gridtrust/internal/testutil"
)

// TestCodecMatchesJSON holds every table in codec.go to the struct tags
// it restates: on random values, and on the lines where a decoder of its
// own is most likely to part from encoding/json.
func TestCodecMatchesJSON(t *testing.T) {
	testutil.CodecMatchesJSON[Request](t, requestCodec, 5000)
	testutil.CodecMatchesJSON[Response](t, responseCodec, 5000)
	testutil.CodecMatchesJSON[PlacementInfo](t, placementCodec, 2000)
	testutil.CodecMatchesJSON[StatsInfo](t, statsCodec, 1000)
	testutil.CodecMatchesJSON[HealthInfo](t, healthCodec, 2000)
	testutil.CodecMatchesJSON[MetricsInfo](t, metricsCodec, 2000)
	testutil.CodecMatchesJSON[metrics.HistSnapshot](t, histCodec, 1000)
	testutil.CodecMatchesJSON[metrics.Bucket](t, bucketCodec, 1000)
	testutil.CodecMatchesJSON[journalRecord](t, recordCodec, 5000)
	for _, line := range codecSeeds() {
		parseLikeJSON(t, line)
	}
}

// FuzzCodecMatchesJSON reads arbitrary bytes as each of the three lines
// the daemon parses and requires json.Unmarshal's verdict and value.
func FuzzCodecMatchesJSON(f *testing.F) {
	for _, line := range codecSeeds() {
		f.Add(line)
	}
	f.Fuzz(parseLikeJSON)
}

func parseLikeJSON(t *testing.T, line []byte) {
	testutil.CodecParsesLikeJSON[Request](t, requestCodec, line)
	testutil.CodecParsesLikeJSON[Response](t, responseCodec, line)
	testutil.CodecParsesLikeJSON[journalRecord](t, recordCodec, line)
}

func codecSeeds() [][]byte {
	seeds := append(testutil.CodecFuzzSeeds("op", "client", "now"),
		testutil.CodecFuzzSeeds("status", "retry_after_ms", "now")...)
	seeds = append(seeds, testutil.CodecFuzzSeeds("kind", "machine", "eec")...)
	for _, v := range codecSamples() {
		line, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, line)
	}
	return seeds
}

// The frames serve traffic is made of: a keyed submit over 12 machines,
// its reply, a scrape, and the record the submit journals.
var (
	sampleSubmit = Request{Op: OpSubmit, Client: 3, Activities: []int{0, 2}, RTL: "C",
		EEC:     []float64{101.5, 97.25, 140, 88.125, 120, 133.5, 92, 104.75, 99, 150.5, 111, 87.0625},
		IdemKey: "w1-000042", BudgetMS: 250, Now: 1234.5}
	samplePlacement = Response{Status: StatusOK, Placement: &PlacementInfo{ID: 1<<ShardIDShift | 42, Machine: 7, RD: 2, CD: 1,
		OTL: "D", TC: 2, EEC: 104.75, ESC: 31.425, ECC: 136.175, Start: 1234.5, Finish: 1370.675}}
	sampleMetrics = Response{Status: StatusOK, Metrics: &MetricsInfo{UptimeMS: 5000, StartUnixNanos: 1790000000000000000}}
	sampleRecord  = journalRecord{Kind: recPlace, ID: 42, Machine: 7, MachineID: 7, RD: 2, CD: 1, OTL: "D", TC: 2,
		EEC: 104.75, ESC: 31.425, Start: 1234.5, Finish: 1370.675, Activities: []int{0, 2}, IdemKey: "w1-000042", Now: 1234.5}
)

func init() {
	reg := metrics.NewRegistry()
	for i, name := range []string{MetricRequests, MetricSubmitOK, MetricSubmitErr, MetricReportOK, MetricReportErr,
		MetricPlacements, MetricIdemHits, MetricConnsAccepted, MetricOverloadReplies, MetricShedInflight} {
		reg.Counter(name).Add(uint64(1000 * (i + 1)))
	}
	for _, name := range []string{MetricOpSubmitNS, MetricOpReportNS, MetricOpStatsNS} {
		h := reg.Histogram(name)
		for v := uint64(800); v < 200000; v += v / 3 {
			h.Observe(v)
		}
	}
	snap := reg.Snapshot()
	snap.Gauges = map[string]int64{MetricConns: 2, MetricInFlight: 1, MetricOpenPlacements: 17, MetricPlaced: 40000, MetricDraining: 0}
	sampleMetrics.Metrics.Snapshot = *snap
}

func codecSamples() []any {
	return []any{&sampleSubmit, &samplePlacement, &sampleMetrics, &sampleRecord,
		&Request{Op: OpReport, PlacementID: 42, Outcome: 5.5, Now: 1240},
		&Response{Status: StatusOverloaded, Error: "draining", RetryAfterMS: 50, ConnClosing: true},
		&Response{Status: StatusOK, Checkpoint: &CheckpointInfo{Boundary: 9, Compacted: 8, Segments: 1}},
		&Response{Status: StatusOK, Fleet: &FleetInfo{Shard: "s0", Members: []string{"s0", "s1"}, Peers: []FleetPeerInfo{{Name: "s1", AgeMS: -1}}}},
		&journalRecord{Kind: recReport, ID: 42, Outcome: 5.5, Now: 1240}}
}

// TestCodecAllocations pins what the request path allocates for its
// frames: nothing to encode into a buffer it already has, and to parse a
// keyed submit only the values the Request keeps — the op, the key and
// the two slices (a one-byte string such as the RTL costs nothing).
func TestCodecAllocations(t *testing.T) {
	buf := make([]byte, 0, 4096)
	encode := func(name string, run func() ([]byte, error)) {
		t.Helper()
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = run() }); got != 0 {
			t.Errorf("encoding a %s into a reused buffer allocates %v times, want 0", name, got)
		}
	}
	encode("submit request", func() ([]byte, error) { return requestCodec.Append(buf, &sampleSubmit) })
	encode("placement reply", func() ([]byte, error) { return responseCodec.Append(buf, &samplePlacement) })
	encode("journal record", func() ([]byte, error) { return recordCodec.Append(buf, &sampleRecord) })

	line, err := json.Marshal(&sampleSubmit)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	if got := testing.AllocsPerRun(200, func() { _ = requestCodec.Parse(line, &req) }); got != 4 {
		t.Errorf("parsing a keyed submit allocates %v times, want 4 (op, idem_key, activities, eec)", got)
	}
}

// BenchmarkFrameCodec reads one frame's encode and decode through its
// table beside encoding/json, the path it replaced and still falls back to.
func BenchmarkFrameCodec(b *testing.B) {
	benchCodec(b, "submit", requestCodec, &sampleSubmit)
	benchCodec(b, "placement", responseCodec, &samplePlacement)
	benchCodec(b, "metrics", responseCodec, &sampleMetrics)
	benchCodec(b, "journal", recordCodec, &sampleRecord)
}

func benchCodec[T any](b *testing.B, name string, c *frame.Codec[T], v *T) {
	line, err := json.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(name+"/codec", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		var buf []byte
		for i := 0; i < b.N; i++ {
			var got T
			if buf, err = c.Append(buf[:0], v); err != nil {
				b.Fatal(err)
			}
			if err := c.Parse(buf, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for i := 0; i < b.N; i++ {
			var got T
			buf, err := json.Marshal(v)
			if err != nil {
				b.Fatal(err)
			}
			if err := json.Unmarshal(buf, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}
