package main

// resilience_test.go drives the daemon's overload-resilience layer from
// outside the process: a retry storm against a capacity-limited daemon
// SIGKILLed mid-storm must yield exactly one placement per acknowledged
// idempotency key after restart-and-replay, and SIGTERM (or the drain op)
// must drain gracefully — clean exit, final checkpoint, state preserved.

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/wal"
)

// probeMachines discovers the generated topology's machine count by
// growing the EEC vector until the daemon accepts a submit (the count is
// not exposed over the wire).  The probe's placement carries no
// idempotency key, so keyed accounting is unaffected.
func probeMachines(t *testing.T, client *rmswire.Client) int {
	t.Helper()
	for n := 1; n <= 64; n++ {
		eec := make([]float64, n)
		for i := range eec {
			eec[i] = 100 + float64(i)
		}
		if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, eec, 0); err != nil {
			if strings.Contains(err.Error(), "EEC entries for") {
				continue
			}
			t.Fatal(err)
		}
		return n
	}
	t.Fatal("could not determine machine count")
	return 0
}

// TestRetryStormExactlyOnce is the acceptance scenario: N retrying
// clients hammer a daemon whose in-flight limit guarantees overload
// sheds, the daemon is SIGKILLed mid-storm, and after restart-and-replay
// every acknowledged placement exists exactly once — no duplicates from
// retried submits, no losses of acknowledged ones — verified both over
// the wire and against the WAL journal itself.
func TestRetryStormExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-data", dir,
		"-topology-seed", "7", "-domains", "3",
		// A tiny admission limit makes overload sheds certain under the
		// storm; compaction off keeps every record inspectable on disk.
		"-max-inflight", "2", "-compact-every", "0",
	}
	cmd, addr, _ := spawnDaemon(t, args...)
	probe, err := rmswire.Dial(addr)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatal(err)
	}
	nMachines := probeMachines(t, probe)
	probe.Close()

	const (
		clients = 4
		tasks   = 12
	)
	key := func(c, i int) string { return fmt.Sprintf("c%d-t%d", c, i) }
	var (
		ackMu sync.Mutex
		acked = map[string]uint64{} // key → acknowledged placement id
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rmswire.NewRetrier(rmswire.RetrierConfig{
				Addr:        addr,
				Seed:        uint64(c),
				MaxAttempts: 6,
				BaseBackoff: 2 * time.Millisecond,
				MaxBackoff:  50 * time.Millisecond,
				DialTimeout: 500 * time.Millisecond,
				OpTimeout:   time.Second,
				Budget:      50 * time.Millisecond,
			})
			defer r.Close()
			for i := 0; i < tasks; i++ {
				eec := make([]float64, nMachines)
				for m := range eec {
					eec[m] = 100 + float64((c*31+i*7+m*13)%40)
				}
				p, err := r.SubmitKeyed(key(c, i), 0, []grid.Activity{grid.ActCompute},
					grid.LevelD, eec, float64(i))
				if err != nil {
					continue // unacknowledged: the kill or sheds won
				}
				ackMu.Lock()
				acked[key(c, i)] = p.ID
				ackMu.Unlock()
				time.Sleep(4 * time.Millisecond)
			}
		}(c)
	}
	// SIGKILL mid-storm: no drain, no flush beyond what Append already
	// made durable before each acknowledgement.
	time.Sleep(25 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	wg.Wait()
	t.Logf("storm: %d/%d submits acknowledged before the kill", len(acked), clients*tasks)

	// Restart and replay, then resubmit EVERY key: acknowledged keys must
	// resolve to their original placement, unacknowledged ones place
	// fresh — exactly once either way.
	cmd2, addr2, _ := spawnDaemon(t, args...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	r2 := rmswire.NewRetrier(rmswire.RetrierConfig{
		Addr: addr2, Seed: 999, MaxAttempts: 10,
		BaseBackoff: 5 * time.Millisecond, OpTimeout: 2 * time.Second,
		Budget: time.Second,
	})
	defer r2.Close()
	finalID := map[string]uint64{}
	for c := 0; c < clients; c++ {
		for i := 0; i < tasks; i++ {
			k := key(c, i)
			eec := make([]float64, nMachines)
			for m := range eec {
				eec[m] = 100 + float64((c*31+i*7+m*13)%40)
			}
			p, err := r2.SubmitKeyed(k, 0, []grid.Activity{grid.ActCompute},
				grid.LevelD, eec, float64(i))
			if err != nil {
				t.Fatalf("post-restart submit %s: %v", k, err)
			}
			finalID[k] = p.ID
		}
	}
	for k, id := range acked {
		if finalID[k] != id {
			t.Errorf("acknowledged key %s: placement %d before the kill, %d after replay", k, id, finalID[k])
		}
	}
	seen := map[uint64]string{}
	for k, id := range finalID {
		if prev, dup := seen[id]; dup {
			t.Errorf("keys %s and %s share placement id %d", prev, k, id)
		}
		seen[id] = k
	}
	st, err := r2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := clients*tasks + 1; st.Placed != want { // +1 probe placement
		t.Errorf("placed %d, want exactly %d (one per key plus the probe)", st.Placed, want)
	}

	// Ground truth from the journal: SIGKILL the restarted daemon too and
	// read the WAL directly — each key must appear on exactly one place
	// record, and every acknowledged key must be present.
	_ = cmd2.Process.Kill()
	_ = cmd2.Wait()
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keyCount := map[string]int{}
	for _, w := range rec.Records {
		var r struct {
			Kind    string `json:"kind"`
			IdemKey string `json:"idem_key"`
		}
		if err := json.Unmarshal(w.Payload, &r); err != nil {
			t.Fatalf("record %d: %v", w.Seq, err)
		}
		if r.Kind == "place" && r.IdemKey != "" {
			keyCount[r.IdemKey]++
		}
	}
	for k, n := range keyCount {
		if n != 1 {
			t.Errorf("journal holds %d place records for key %s", n, k)
		}
	}
	for k := range acked {
		if keyCount[k] != 1 {
			t.Errorf("acknowledged key %s journalled %d times, want exactly 1", k, keyCount[k])
		}
	}
	if len(keyCount) != clients*tasks {
		t.Errorf("journal holds %d distinct keys, want %d", len(keyCount), clients*tasks)
	}
}

// TestGracefulDrainSIGTERM verifies the SIGTERM path: the daemon stops
// accepting, finishes in-flight work, takes a final checkpoint, exits 0,
// and a restart replays to the identical pre-drain state.
func TestGracefulDrainSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-data", dir,
		"-topology-seed", "7", "-domains", "3",
		"-drain-timeout", "5s",
	}
	cmd, addr, out := spawnDaemon(t, args...)
	client, err := rmswire.Dial(addr)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatal(err)
	}
	nMachines := probeMachines(t, client)
	reported := 0
	for i := 1; i < 6; i++ {
		p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, seqEEC(nMachines), float64(i))
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := client.Report(p.ID, 5, float64(i)+0.5); err != nil {
				t.Fatal(err)
			}
			reported++
		}
	}
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.AgentsProcessed != reported {
		t.Fatalf("agent processed %d of %d reports before their replies", before.AgentsProcessed, reported)
	}
	client.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM drain exited dirty: %v\n%s", err, out)
	}
	text := out.String()
	if !strings.Contains(text, "draining: signal") ||
		!strings.Contains(text, "final checkpoint") ||
		!strings.Contains(text, "drained; exiting") {
		t.Fatalf("drain narrative missing:\n%s", text)
	}
	// The final checkpoint folded the whole history into one snapshot.
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq == 0 {
		t.Fatal("no snapshot on disk after graceful drain")
	}
	if len(rec.Records) != 0 {
		t.Fatalf("%d records left outside the final snapshot", len(rec.Records))
	}

	cmd2, addr2, _ := spawnDaemon(t, args...)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()
	client2, err := rmswire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer client2.Close()
	after, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Full-struct equality: the final snapshot carries the agent counters
	// too, so every stats field survives the drain/restart cycle.
	if *after != *before {
		t.Fatalf("restart after drain diverged:\n before %+v\n after  %+v", before, after)
	}
}

// TestDrainOverTheWire verifies gridctl-style remote drain: the drain op
// makes the daemon exit 0 without any signal.
func TestDrainOverTheWire(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd, addr, out := spawnDaemon(t, "-addr", "127.0.0.1:0", "-drain-timeout", "5s")
	client, err := rmswire.Dial(addr)
	if err != nil {
		_ = cmd.Process.Kill()
		t.Fatal(err)
	}
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Journal {
		t.Fatalf("health %+v", h)
	}
	if err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	client.Close()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain op exited dirty: %v\n%s", err, out)
		}
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		t.Fatalf("daemon did not exit after drain op\n%s", out)
	}
	if text := out.String(); !strings.Contains(text, "draining: requested over the wire") {
		t.Fatalf("drain narrative missing:\n%s", text)
	}
	// New connections must be refused once drained.
	if _, err := rmswire.DialTimeout(addr, 500*time.Millisecond); err == nil {
		t.Fatal("drained daemon still accepting")
	}
}

// TestHealthUnderLimits verifies the admission flags are wired through
// to the served health view.
func TestHealthUnderLimits(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	cmd, addr, _ := spawnDaemon(t, "-addr", "127.0.0.1:0", "-max-conns", "3", "-max-inflight", "2", "-drain-timeout", "1s")
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	client, err := rmswire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	h, err := client.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.MaxConns != 3 || h.MaxInFlight != 2 {
		t.Fatalf("limits not wired through flags: %+v", h)
	}
}
