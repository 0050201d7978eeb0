package load

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
)

const reconcileGoldenFile = "testdata/reconcile_golden.json"

// goldenCheck is what the golden pins of one reconciliation check: its
// name, both sides and its verdict.  Notes are prose and free to change.
type goldenCheck struct {
	Name    string `json:"name"`
	Got     int64  `json:"got"`
	Want    int64  `json:"want"`
	OK      bool   `json:"ok"`
	Skipped bool   `json:"skipped"`
}

type goldenReconcile struct {
	OK        bool          `json:"ok"`
	Restarted bool          `json:"restarted"`
	Checks    []goldenCheck `json:"checks"`
}

// scrape fabricates one daemon's metrics snapshot.
func scrape(instance int64, placed, idem, open int64, placements, reportOK, overloads, connSheds uint64) *rmswire.MetricsInfo {
	return &rmswire.MetricsInfo{
		StartUnixNanos: instance,
		Snapshot: metrics.Snapshot{
			Gauges: map[string]int64{
				rmswire.MetricPlaced:         placed,
				rmswire.MetricIdemEntries:    idem,
				rmswire.MetricOpenPlacements: open,
			},
			Counters: map[string]uint64{
				rmswire.MetricPlacements:      placements,
				rmswire.MetricReportOK:        reportOK,
				rmswire.MetricOverloadReplies: overloads,
				rmswire.MetricShedConnLimit:   connSheds,
			},
		},
	}
}

// TestReconcileGolden pins the reconciliation's check names and verdicts
// for a lone daemon and for a three-shard fleet: balanced books, the
// off-by-one of a report the daemons closed and the driver did not count,
// a mid-run restart, accept-time sheds and an unsettled key.
//
// The file was recorded at commit 2b02036, where a lone daemon and a fleet
// each had a reconciler of their own (reconcile and reconcileFleet; this
// test called one or the other).  After an intended change, delete it and
// run the test once: it records the current verdicts and fails.
func TestReconcileGolden(t *testing.T) {
	books := func(submits, reports, unresolved int64, overloads uint64) Report {
		return Report{SubmitsOK: submits, ReportsOK: reports, Unresolved: unresolved,
			Retrier: rmswire.RetrierCounters{Overloads: overloads}}
	}
	one := func(m *rmswire.MetricsInfo) []*rmswire.MetricsInfo { return []*rmswire.MetricsInfo{m} }
	zero3 := []*rmswire.MetricsInfo{scrape(1, 0, 0, 0, 0, 0, 0, 0), scrape(2, 0, 0, 0, 0, 0, 0, 0), scrape(3, 0, 0, 0, 0, 0, 0, 0)}
	cases := []struct {
		name          string
		fleet         bool
		before, after []*rmswire.MetricsInfo
		rep           Report
	}{
		{"one/balanced", false, one(scrape(1, 10, 10, 2, 10, 8, 1, 0)), one(scrape(1, 110, 110, 12, 110, 98, 4, 0)), books(100, 90, 0, 3)},
		{"one/lost-report-ack", false, one(scrape(1, 0, 0, 0, 0, 0, 0, 0)), one(scrape(1, 100, 100, 9, 100, 91, 0, 0)), books(100, 90, 0, 0)},
		{"one/restarted", false, one(scrape(1, 10, 10, 2, 10, 8, 0, 0)), one(scrape(2, 110, 110, 12, 40, 30, 0, 0)), books(100, 90, 0, 0)},
		{"one/conn-sheds", false, one(scrape(1, 0, 0, 0, 0, 0, 0, 0)), one(scrape(1, 100, 100, 10, 100, 90, 7, 2)), books(100, 90, 0, 5)},
		{"one/unresolved", false, one(scrape(1, 0, 0, 0, 0, 0, 0, 0)), one(scrape(1, 100, 100, 10, 100, 90, 0, 0)), books(100, 90, 2, 0)},
		{"three/balanced", true, zero3,
			[]*rmswire.MetricsInfo{scrape(1, 40, 40, 4, 40, 36, 2, 0), scrape(2, 35, 35, 3, 35, 32, 0, 0), scrape(3, 25, 25, 3, 25, 22, 1, 0)},
			books(100, 90, 0, 9)},
		{"three/lost-report-ack", true, zero3,
			[]*rmswire.MetricsInfo{scrape(1, 40, 40, 4, 40, 36, 0, 0), scrape(2, 35, 35, 2, 35, 33, 0, 0), scrape(3, 25, 25, 3, 25, 22, 0, 0)},
			books(100, 90, 0, 0)},
		{"three/restarted", true, zero3,
			[]*rmswire.MetricsInfo{scrape(1, 40, 40, 4, 40, 36, 0, 0), scrape(9, 35, 35, 3, 5, 4, 0, 0), scrape(3, 25, 25, 3, 25, 22, 0, 0)},
			books(100, 90, 0, 0)},
		{"three/unresolved", true, zero3,
			[]*rmswire.MetricsInfo{scrape(1, 40, 40, 4, 40, 36, 0, 0), scrape(2, 35, 35, 3, 35, 32, 0, 0), scrape(3, 25, 25, 3, 25, 22, 0, 0)},
			books(100, 90, 1, 0)},
	}
	got := map[string]goldenReconcile{}
	for _, c := range cases {
		if c.fleet {
			c.rep.FleetAddrs = []string{"s0", "s1", "s2"}
		}
		rec := reconcile(c.before, c.after, &c.rep)
		g := goldenReconcile{OK: rec.OK, Restarted: rec.DaemonRestarted}
		for _, ch := range rec.Checks {
			g.Checks = append(g.Checks, goldenCheck{ch.Name, ch.Got, ch.Want, ch.OK, ch.Skipped})
		}
		got[c.name] = g
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	want, err := os.ReadFile(reconcileGoldenFile)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(reconcileGoldenFile, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded %d cases from the current behaviour; review and commit it", reconcileGoldenFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("reconcile verdicts differ from %s:\n%s", reconcileGoldenFile, data)
	}
}
