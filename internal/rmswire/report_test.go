package rmswire

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/testutil"
	"gridtrust/internal/wal"
)

// TestConcurrentDuplicateReportsApplyOnce races N reports of one
// placement.  RPT-ORDER says exactly one is applied and acknowledged
// plainly; every other caller is either shed as retryable while that one
// executes, or told Replayed once it is journalled — never an error,
// never a second plain ok, and the agent sees the transaction once.
func TestConcurrentDuplicateReportsApplyOnce(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t)) // registered first: runs after the daemon's teardown
	trms, srv, client := newDaemon(t)
	// A journal whose fsync takes a while holds the first report between
	// apply and journal long enough for the others to arrive in that window.
	log, rec, err := wal.Create(t.TempDir(), wal.Options{
		SyncObserver: func(uint64) { time.Sleep(2 * time.Millisecond) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		t.Fatal(err)
	}
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	before, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}

	const n = 16
	var (
		wg                     sync.WaitGroup
		mu                     sync.Mutex
		applied, replays, shed int
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		c, err := Dial(addrOf(srv))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _, err := c.RoundTrip(&Request{Op: OpReport, PlacementID: p.ID, Outcome: 5, Now: 1}, nil)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case resp.Status == StatusOK && !resp.Replayed:
				applied++
			case resp.Status == StatusOK:
				replays++
			case resp.Status == StatusOverloaded:
				shed++
			default:
				t.Errorf("a duplicate report got %q (%v): want ok, replayed or overloaded", resp.Status, err)
			}
		}()
	}
	close(start)
	wg.Wait()

	t.Logf("%d applied, %d replayed, %d shed", applied, replays, shed)
	if applied != 1 || applied+replays+shed != n {
		t.Fatalf("%d applied, %d replayed, %d shed of %d reports; want exactly one applied", applied, replays, shed, n)
	}
	if processed, _, _ := trms.AgentStats(); processed != 1 {
		t.Fatalf("agent processed %d transactions for one placement", processed)
	}
	after, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	delta := func(name string) int { return int(after.Counters[name] - before.Counters[name]) }
	if delta(MetricReportOK) != 1 || delta(MetricReportErr) != 0 ||
		delta(MetricReportReplays) != replays || delta(MetricShedReportPending) != shed {
		t.Fatalf("daemon counted ok=%d err=%d replays=%d shed=%d; the callers saw 1, 0, %d, %d",
			delta(MetricReportOK), delta(MetricReportErr), delta(MetricReportReplays), delta(MetricShedReportPending), replays, shed)
	}
	if got := after.Gauges[MetricOpenPlacements]; got != 0 {
		t.Fatalf("open_placements = %d after the report", got)
	}
	// Whoever was shed retries, and is told the report already landed.
	resp, _, err := client.RoundTrip(&Request{Op: OpReport, PlacementID: p.ID, Outcome: 5, Now: 2}, nil)
	if err != nil || !resp.Replayed {
		t.Fatalf("retry after the race: replayed=%v err=%v", resp.Replayed, err)
	}
}

// TestSubmitAndItsReplayAreTheSameFrame: the first answer to a keyed
// submit and every idempotent replay of it are built by one function from
// one record, so they are the same bytes on the wire.
func TestSubmitAndItsReplayAreTheSameFrame(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	_, srv, client := newDaemon(t)
	conn, err := net.Dial("tcp", addrOf(srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	const submit = `{"op":"submit","client":0,"activities":[0,1],"rtl":"E","eec":[100.5,33.25],"idem_key":"same","now":3.5}` + "\n"
	var frames [2][]byte
	for i := range frames {
		if _, err := conn.Write([]byte(submit)); err != nil {
			t.Fatal(err)
		}
		if frames[i], err = r.ReadBytes('\n'); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Contains(frames[0], []byte(`"status":"ok"`)) {
		t.Fatalf("submit refused: %s", frames[0])
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Fatalf("a submit and its replay differ on the wire:\n first: %s replay: %s", frames[0], frames[1])
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters[MetricPlacements] != 1 || m.Counters[MetricIdemHits] != 1 {
		t.Fatalf("placements=%d idem_hits=%d, want one placement and one replay of it",
			m.Counters[MetricPlacements], m.Counters[MetricIdemHits])
	}
}
