package rmswire

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"gridtrust/internal/chaos"
	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// journalTopology rebuilds the same two-domain topology every call, so a
// "restarted" daemon sees the grid the journal was written against.
func journalTopology(t testing.TB) *grid.Topology {
	t.Helper()
	mkRD := func(id grid.DomainID) *grid.ResourceDomain {
		return &grid.ResourceDomain{
			ID: id, Owner: "org",
			Supported: map[grid.Activity]grid.TrustLevel{
				grid.ActCompute: grid.LevelC,
				grid.ActStorage: grid.LevelC,
			},
			RTL:      grid.LevelA,
			Machines: []*grid.Machine{{ID: grid.MachineID(id), RD: id}},
		}
	}
	top, err := grid.NewTopology(
		&grid.GridDomain{
			ID: 0, RD: mkRD(0),
			CD: &grid.ClientDomain{
				ID:      0,
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: 0, CD: 0}},
			},
		},
		&grid.GridDomain{ID: 1, RD: mkRD(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// startJournaled boots a daemon over the WAL in dir: a fresh TRMS, journal
// recovery replayed, server listening.
func startJournaled(t testing.TB, dir string, compactEvery int) (*Server, *Client, func()) {
	t.Helper()
	trms, err := core.New(core.Config{
		Topology: journalTopology(t),
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachJournal(log, rec, compactEvery); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	stop := func() {
		client.Close()
		srv.Close()
		trms.Close()
		log.Close()
	}
	return srv, client, stop
}

// stats reads the stats view, which must count want processed
// transactions: a report is applied before its reply is sent.
func stats(t *testing.T, client *Client, want int) *StatsInfo {
	t.Helper()
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.AgentsProcessed != want {
		t.Fatalf("agent processed %d transactions, want %d", st.AgentsProcessed, want)
	}
	return st
}

// driveTraffic submits n tasks, reporting an outcome for all but the last
// two (left open across the restart).  Outcomes alternate so the table
// actually moves.
func driveTraffic(t *testing.T, client *Client, n int) (reported int) {
	t.Helper()
	for i := 0; i < n; i++ {
		eec := []float64{10 + float64(i%3), 12 + float64((i*5)%7)}
		p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, eec, float64(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if i >= n-2 {
			continue
		}
		outcome := 6.0
		if i%3 == 0 {
			outcome = 2.0
		}
		if err := client.Report(p.ID, outcome, float64(i)+0.5); err != nil {
			t.Fatalf("report %d: %v", i, err)
		}
		reported++
	}
	return reported
}

func TestJournalRestartRestoresState(t *testing.T) {
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 0)
	reported := driveTraffic(t, client, 9)
	before := stats(t, client, reported)
	stop()

	_, client2, stop2 := startJournaled(t, dir, 0)
	defer stop2()
	after := stats(t, client2, reported)
	if after.Placed != before.Placed ||
		after.OpenPlacements != before.OpenPlacements ||
		after.TableVersion != before.TableVersion ||
		after.TableEntries != before.TableEntries {
		t.Fatalf("restart diverged:\n before %+v\n after  %+v", before, after)
	}
	// The restarted daemon keeps issuing ids where the old one stopped
	// and still resolves placements left open across the restart.
	p, err := client2.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, []float64{10, 12}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != 10 {
		t.Fatalf("post-restart placement id %d, want 10", p.ID)
	}
	if err := client2.Report(8, 5, 101); err != nil {
		t.Fatalf("report of pre-restart placement: %v", err)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 0)
	reported := driveTraffic(t, client, 8)

	info, err := client.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// 8 places + 6 reports journalled before the checkpoint.
	if info.Compacted != 14 || info.Boundary != 15 {
		t.Fatalf("checkpoint %+v, want 14 records compacted at boundary 15", info)
	}
	// Traffic after the checkpoint lands in the record tail.
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelD, []float64{10, 12}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(p.ID, 6, 51); err != nil {
		t.Fatal(err)
	}
	before := stats(t, client, reported+1)
	stop()

	// The restart must recover from snapshot + tail.
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 15 || len(rec.Records) != 2 {
		t.Fatalf("on disk: snapshot %d + %d records, want 15 + 2", rec.SnapshotSeq, len(rec.Records))
	}
	_, client2, stop2 := startJournaled(t, dir, 0)
	defer stop2()
	// The snapshot carries the agent counters; the tail's one report
	// replays through the agent on top of them.
	after := stats(t, client2, reported+1)
	if after.Placed != before.Placed ||
		after.OpenPlacements != before.OpenPlacements ||
		after.TableVersion != before.TableVersion {
		t.Fatalf("post-checkpoint restart diverged:\n before %+v\n after  %+v", before, after)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 4)
	defer stop()
	driveTraffic(t, client, 6)
	names, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 {
		t.Fatalf("auto-checkpoint left %d snapshot files, want 1", len(names))
	}
}

func TestCheckpointWithoutJournalFails(t *testing.T) {
	_, _, client := newDaemon(t)
	if _, err := client.Checkpoint(); err == nil || !strings.Contains(err.Error(), "no journal") {
		t.Fatalf("checkpoint without journal: %v", err)
	}
}

func TestReplayRejectsGarbageRecords(t *testing.T) {
	dir := t.TempDir()
	log, _, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.Append([]byte(`{"kind":"wat"}`)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	trms, err := core.New(core.Config{Topology: journalTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer trms.Close()
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	log2, rec, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if err := srv.AttachJournal(log2, rec, 0); err == nil {
		t.Fatal("replayed an unknown record kind without error")
	}
}

func TestJournalFilesAreBounded(t *testing.T) {
	// A long-running daemon with auto-checkpointing must not accumulate
	// unbounded log files.
	dir := t.TempDir()
	_, client, stop := startJournaled(t, dir, 3)
	defer stop()
	driveTraffic(t, client, 12)
	if _, err := client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 3 {
		for _, e := range entries {
			t.Logf("  %s", e.Name())
		}
		t.Fatalf("%d files in journal dir after compaction", len(entries))
	}
}

// failTempFS is a chaos filesystem on which every snapshot fails at its
// first step, creating the temp file, and which counts the attempts.
type failTempFS struct {
	*chaos.FS
	attempts atomic.Int64
}

func (f *failTempFS) CreateTemp(string, string) (wal.File, error) {
	f.attempts.Add(1)
	return nil, syscall.ENOSPC
}

// TestFailedAutoCheckpointWaitsForMoreRecords: an automatic checkpoint
// that fails is counted and tried again only after another compactEvery
// records, not on every later request, and never on a degraded daemon.
func TestFailedAutoCheckpointWaitsForMoreRecords(t *testing.T) {
	fs := &failTempFS{FS: chaos.NewFS()}
	srv := booksServer(t)
	defer srv.trms.Close()
	log, rec, err := wal.Create(t.TempDir(), wal.Options{FS: fs, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if err := srv.AttachJournal(log, rec, 4); err != nil {
		t.Fatal(err)
	}
	submit := func() Response {
		return respondTo(srv, Request{Op: OpSubmit, Activities: []int{0}, RTL: "D", EEC: []float64{10, 12}})
	}
	check := func(when string, attempts, errs int) {
		t.Helper()
		got := srv.Metrics().Snapshot().Counters[MetricAutoCheckpointErrors]
		if fs.attempts.Load() != int64(attempts) || got != uint64(errs) {
			t.Fatalf("%s: %d snapshot attempts and %s=%d, want %d and %d",
				when, fs.attempts.Load(), MetricAutoCheckpointErrors, got, attempts, errs)
		}
	}
	for i := 0; i < 4; i++ {
		if resp := submit(); resp.Status != StatusOK {
			t.Fatalf("submit %d: %+v", i, resp)
		}
	}
	for i := 0; i < 20; i++ {
		respondTo(srv, Request{Op: OpStats})
	}
	check("4 submits and 20 stats", 1, 1)
	for i := 0; i < 4; i++ {
		submit()
	}
	check("4 more submits", 2, 2)
	// Three records, then a write fault: the fourth submit's record fails
	// the journal, which degrades the daemon as it becomes due.
	for i := 0; i < 3; i++ {
		submit()
	}
	fs.FailWrites(syscall.EIO)
	if resp := submit(); resp.Status == StatusOK {
		t.Fatal("submit on a failing disk succeeded")
	}
	if deg, _ := srv.Degraded(); !deg {
		t.Fatal("daemon not degraded by a failed journal write")
	}
	respondTo(srv, Request{Op: OpStats})
	check("degraded", 2, 2)
}

// TestNextIDBaseBeforeReplay: SetNextIDBase called before AttachJournal
// keeps the shard's namespace when the snapshot's next_id is lower.
func TestNextIDBaseBeforeReplay(t *testing.T) {
	dir := t.TempDir()
	srv := booksServer(t)
	log, rec, err := wal.Create(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if resp := respondTo(srv, Request{Op: OpSubmit, Activities: []int{0}, RTL: "D", EEC: []float64{10, 12}}); resp.Status != StatusOK {
			t.Fatalf("submit %d: %+v", i, resp)
		}
	}
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	log.Close()
	srv.trms.Close()

	srv2 := booksServer(t)
	defer srv2.trms.Close()
	srv2.SetNextIDBase(2 << ShardIDShift)
	log2, rec2, err := wal.Create(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	var snap daemonSnapshot
	if err := json.Unmarshal(rec2.Snapshot, &snap); err != nil || snap.NextID != 5 {
		t.Fatalf("snapshot next_id %d (%v), want 5", snap.NextID, err)
	}
	if err := srv2.AttachJournal(log2, rec2, 0); err != nil {
		t.Fatal(err)
	}
	resp := respondTo(srv2, Request{Op: OpSubmit, Activities: []int{0}, RTL: "D", EEC: []float64{10, 12}})
	if resp.Status != StatusOK {
		t.Fatalf("submit after replay: %+v", resp)
	}
	if got, want := resp.Placement.ID, uint64(2<<ShardIDShift+1); got != want {
		t.Fatalf("first placement after replay has id %d, want %d", got, want)
	}
}

// TestNegativeEECIsRejectedOverWire pins that a submit with a negative
// execution cost, which is valid JSON, is refused by the daemon: it
// answers StatusError, journals nothing, and the next valid submit is
// placed exactly as on a daemon that never saw it.
func TestNegativeEECIsRejectedOverWire(t *testing.T) {
	acts := []grid.Activity{grid.ActCompute}
	run := func(bad bool) (p PlacementInfo, seq uint64) {
		_, client, stop := startJournaled(t, t.TempDir(), 0)
		defer stop()
		if bad {
			resp, err := client.call(submitRequest("", 0, acts, grid.LevelA, []float64{10, -100}, 5))
			if err == nil || resp.Status != StatusError || !strings.Contains(resp.Error, "EEC entry 1 is -100") {
				t.Fatalf("negative EEC: status %q, error %q (%v), want StatusError naming the entry", resp.Status, resp.Error, err)
			}
		}
		h, err := client.Health()
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.Submit(0, acts, grid.LevelA, []float64{10, 12}, 5)
		if err != nil {
			t.Fatal(err)
		}
		return *got, h.JournalNextSeq
	}
	clean, cleanSeq := run(false)
	after, afterSeq := run(true)
	if afterSeq != cleanSeq {
		t.Errorf("journal next seq %d after the rejected submit, %d without it", afterSeq, cleanSeq)
	}
	if after != clean {
		t.Errorf("next placement %+v, %+v without the rejected submit", after, clean)
	}
}
