package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/rmswire"
)

// TestScrapeLineOnAFleetShard: a shard's scrape line, written by its
// registry with the router's per-peer counters and forward histogram in
// it, is json.Marshal of the reply a Snapshot builds (the codec is held
// to json.Marshal by rmswire's TestCodecMatchesJSON).  Gossip runs
// hourly here, so a quiescent shard's second look matches its first.
func TestScrapeLineOnAFleetShard(t *testing.T) {
	shards, _ := startFleetCfg(t, 3, time.Hour, func(c *Config) { c.GossipIntervalMS = time.Hour.Milliseconds() })
	forwards := 0
	for c := 0; c < 4; c++ {
		if _, err := shards[0].client.SubmitKeyed(fmt.Sprintf("scrape-%d", c), grid.ClientID(c),
			[]grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110, 120, 130}, 0); err != nil {
			t.Fatal(err)
		}
		if ownerOf(shards, c) != 0 {
			forwards++
		}
	}
	if forwards == 0 {
		t.Fatal("no submit was forwarded")
	}
	relay := &frame.Line{Bytes: []byte(`{"op":"metrics"}`)}
	if _, _, err := shards[0].client.RoundTrip(nil, relay); err != nil {
		t.Fatal(err)
	}
	line := relay.Bytes
	var got rmswire.Response
	if err := json.Unmarshal(line, &got); err != nil || got.Metrics == nil {
		t.Fatalf("scrape line %s: %v", line, err)
	}
	for _, name := range []string{`"fleet_forward_ok_s1_total":`, `"fleet_gossip_sync_s2_total":`, `"` + MetricForwardNS + `":{"count":`} {
		if !bytes.Contains(line, []byte(name)) {
			t.Fatalf("shard scrape lacks %s: %s", name, line)
		}
	}
	snap := shards[0].srv.Metrics().Snapshot()
	snap.Seq--
	want, err := json.Marshal(&rmswire.Response{Status: rmswire.StatusOK, Metrics: &rmswire.MetricsInfo{
		Snapshot: *snap, UptimeMS: got.Metrics.UptimeMS, StartUnixNanos: got.Metrics.StartUnixNanos,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(line, want) {
		t.Fatalf("shard scrape line\n%s\nwant the Snapshot-built reply\n%s", line, want)
	}
}
