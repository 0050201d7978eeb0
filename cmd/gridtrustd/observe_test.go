package main

// observe_test.go covers the observability layer end to end against real
// daemon processes: restart detection via monotonic uptime + instance
// stamp + metrics scrape sequence, and the load driver's reconciliation
// holding across a mid-run SIGKILL + restart (WAL replay restores the
// durable placement and idempotency-key anchors).

import (
	"testing"
	"time"

	"gridtrust/internal/load"
	"gridtrust/internal/rmswire"
)

// TestRestartDetection pins the three restart signals a poller can use:
// the instance stamp changes, uptime goes backwards, and the metrics
// scrape sequence resets — even when the daemon comes back on the same
// address faster than the polling interval.
func TestRestartDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd, addr, _ := spawnDaemon(t, "-addr", "127.0.0.1:0")
	client, err := rmswire.Dial(addr)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatal(err)
	}
	// Two scrapes advance the sequence; health reports it without
	// scraping.
	if _, err := client.Metrics(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Metrics(); err != nil {
		t.Fatal(err)
	}
	h1, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h1.StartUnixNanos == 0 || h1.UptimeMS < 0 {
		t.Fatalf("health missing instance identity: %+v", h1)
	}
	if h1.MetricsSeq != 2 {
		t.Fatalf("metrics seq = %d after two scrapes, want 2", h1.MetricsSeq)
	}
	// Uptime is monotonic within one instance.
	time.Sleep(20 * time.Millisecond)
	h1b, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h1b.UptimeMS < h1.UptimeMS {
		t.Fatalf("uptime went backwards within one instance: %d -> %d", h1.UptimeMS, h1b.UptimeMS)
	}
	client.Close()

	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	// Same address: a poller cannot tell a restart from the address.
	cmd2, addr2, _ := spawnDaemon(t, "-addr", addr)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	if addr2 != addr {
		t.Fatalf("restart bound %s, want %s", addr2, addr)
	}
	client2, err := rmswire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	h2, err := client2.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h2.StartUnixNanos == h1.StartUnixNanos {
		t.Fatal("instance stamp unchanged across restart")
	}
	if h2.MetricsSeq != 0 {
		t.Fatalf("metrics seq = %d after restart, want 0", h2.MetricsSeq)
	}
	if h2.UptimeMS >= h1b.UptimeMS {
		t.Fatalf("restarted uptime %dms not below pre-kill %dms", h2.UptimeMS, h1b.UptimeMS)
	}
}

// TestLoadReconcilesAcrossCrashRestart SIGKILLs a journalling daemon in
// the middle of a load run and restarts it on the same address and data
// directory.  The load driver's retriers ride through the outage, the
// settle pass resolves every ambiguous key, and the durable
// reconciliation anchors — placed, idem_entries, open_placements, all
// restored by WAL replay — must balance exactly against client totals.
func TestLoadReconcilesAcrossCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	args := []string{"-data", dir, "-topology-seed", "7", "-domains", "3"}
	cmd, addr, _ := spawnDaemon(t, append([]string{"-addr", "127.0.0.1:0"}, args...)...)

	type result struct {
		rep *load.Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := load.Run(load.Config{
			Addr:          addr,
			Clients:       3,
			Mode:          load.ModeClosed,
			Duration:      3 * time.Second,
			Seed:          23,
			KeyPrefix:     "crash",
			MaxAttempts:   80,
			BaseBackoff:   10 * time.Millisecond,
			MaxBackoff:    200 * time.Millisecond,
			OpTimeout:     2 * time.Second,
			SettleTimeout: 30 * time.Second,
		})
		done <- result{rep, err}
	}()

	// Kill mid-run — no drain, no final checkpoint — and restart on the
	// same address against the same WAL.
	time.Sleep(time.Second)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	cmd2, addr2, _ := spawnDaemon(t, append([]string{"-addr", addr}, args...)...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	if addr2 != addr {
		t.Fatalf("restart bound %s, want %s", addr2, addr)
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("load run: %v", res.err)
	}
	rep := res.rep
	if !rep.Reconcile.DaemonRestarted {
		t.Fatal("restart not detected by the load driver")
	}
	if rep.SubmitsOK == 0 {
		t.Fatal("no submits survived the crash window")
	}
	if rep.Unresolved != 0 {
		t.Fatalf("%d keys unresolved after settle:\n%s", rep.Unresolved, rep.Text())
	}
	if !rep.Reconcile.OK {
		t.Fatalf("reconcile failed across SIGKILL+restart:\n%s", rep.Text())
	}
	// The volatile counter checks must have been skipped, not silently
	// passed: the daemon restarted, so instance-local counters reset.
	skipped := 0
	for _, c := range rep.Reconcile.Checks {
		if c.Skipped {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no volatile checks skipped although the daemon restarted")
	}
}
