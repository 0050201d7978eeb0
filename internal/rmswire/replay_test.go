package rmswire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"gridtrust/internal/core"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// booksServer builds the daemon every replay test uses: journalTopology
// and no listener, since requests go straight to respond.
func booksServer(t *testing.T) *Server {
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
	return srv
}

// journalledBooksServer is booksServer journalling to dir.
func journalledBooksServer(t *testing.T, dir string) *Server {
	t.Helper()
	srv := booksServer(t)
	log, rec, err := wal.Create(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		log.Close()
		srv.trms.Close()
	})
	return srv
}

// restState renders everything a daemon holds at rest: the checkpoint
// payload and the stats view.
func restState(t *testing.T, srv *Server) string {
	t.Helper()
	payload, err := json.Marshal(srv.capture())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := json.Marshal(srv.handleStats().Stats)
	if err != nil {
		t.Fatal(err)
	}
	return string(payload) + "\n" + string(stats)
}

// recoveredState is restState of a fresh daemon rebuilt from what is on
// disk in dir, as a restart after a crash at that moment would see it.
func recoveredState(t *testing.T, dir string) string {
	t.Helper()
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := booksServer(t)
	defer srv.trms.Close()
	if err := srv.replay(rec); err != nil {
		t.Fatal(err)
	}
	return restState(t, srv)
}

// TestReplayEqualsLiveAtEveryRecord drives random traffic through respond
// on a journalled daemon: keyed and unkeyed submits, retries of known
// keys, reports of open, closed, never-issued and foreign ids, off-scale
// outcomes (rejected, so the placement stays open) and checkpoints.  Every
// mutation appends exactly one record, so checking after every request
// that a daemon recovered from the directory equals the live one, by
// checkpoint payload and stats, checks a crash at every record boundary.
func TestReplayEqualsLiveAtEveryRecord(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			dir := t.TempDir()
			srv := journalledBooksServer(t, dir)
			r := rng.New(seed)
			var (
				keys   []string
				issued []uint64
				open   = map[uint64]bool{}
				now    float64
			)
			pickOpen := func() (uint64, bool) {
				for _, id := range issued[r.Intn(len(issued)+1):] {
					if open[id] {
						return id, true
					}
				}
				for _, id := range issued {
					if open[id] {
						return id, true
					}
				}
				return 0, false
			}
			submit := func(key string) Request {
				eec := []float64{10 + float64(r.Intn(5)), 10 + float64(r.Intn(5))}
				acts := []int{0}
				if r.Bool(0.3) {
					acts = []int{0, 1}
				}
				return Request{Op: OpSubmit, Client: 0, Activities: acts, RTL: "D", EEC: eec, IdemKey: key, Now: now}
			}
			for step := 0; step < 80; step++ {
				now += 0.5
				var req Request
				switch r.Intn(10) {
				case 0, 1:
					keys = append(keys, fmt.Sprintf("key-%d-%d", seed, len(keys)))
					req = submit(keys[len(keys)-1])
				case 2:
					if len(keys) == 0 {
						continue
					}
					req = submit(keys[r.Intn(len(keys))])
				case 3:
					req = submit("")
				case 4, 5:
					id, ok := pickOpen()
					if !ok {
						continue
					}
					req = Request{Op: OpReport, PlacementID: id, Outcome: float64(1 + r.Intn(6)), Now: now}
				case 6:
					if len(issued) == 0 {
						continue
					}
					req = Request{Op: OpReport, PlacementID: issued[r.Intn(len(issued))], Outcome: 4, Now: now}
				case 7:
					unknown := []uint64{0, uint64(len(issued)) + 1 + uint64(r.Intn(3)), 1<<ShardIDShift | 1}
					req = Request{Op: OpReport, PlacementID: unknown[r.Intn(len(unknown))], Outcome: 4, Now: now}
				case 8:
					id, ok := pickOpen()
					if !ok {
						continue
					}
					req = Request{Op: OpReport, PlacementID: id, Outcome: 9, Now: now}
				case 9:
					if _, err := srv.Checkpoint(); err != nil {
						t.Fatalf("step %d: checkpoint: %v", step, err)
					}
				}
				if req.Op != "" {
					resp := srv.respond(req)
					switch {
					case req.Op == OpSubmit && resp.Status == StatusOK:
						// An idempotent hit answers an id already issued.
						if id := resp.Placement.ID; len(issued) == 0 || id > issued[len(issued)-1] {
							issued = append(issued, id)
							open[id] = true
						}
					case req.Op == OpReport && resp.Status == StatusOK && !resp.Replayed:
						delete(open, req.PlacementID)
					}
				}
				live, recovered := restState(t, srv), recoveredState(t, dir)
				if live != recovered {
					t.Fatalf("step %d (%+v): a daemon recovered from the journal differs from the live one:\n live      %s\n recovered %s",
						step, req, live, recovered)
				}
			}
			if len(issued) == 0 || len(open) == len(issued) {
				t.Fatalf("the script placed %d and closed %d: it exercises too little", len(issued), len(issued)-len(open))
			}
		})
	}
}

// checkpointGoldenFile is the checkpoint payload of checkpointScript,
// recorded at commit bcec818, before the daemon's books moved into one
// type.  After an intended change of the snapshot format, delete the file
// and run the test once: it records the current payload and fails, so a
// missing file never passes.
const checkpointGoldenFile = "testdata/checkpoint_golden.json"

// checkpointScript is fixed traffic that reaches every part of the
// snapshot: keyed and unkeyed placements, a keyed one already reported
// (its key must outlive its placement), a retried key, a rejected
// outcome, placements left open, and a checkpoint part-way so the final
// one folds a snapshot and a tail.
func checkpointScript() []Request {
	submit := func(key string, acts []int, rtl string, eec0, eec1, now float64) Request {
		return Request{Op: OpSubmit, Client: 0, Activities: acts, RTL: rtl, EEC: []float64{eec0, eec1}, IdemKey: key, Now: now}
	}
	report := func(id uint64, outcome, now float64) Request {
		return Request{Op: OpReport, PlacementID: id, Outcome: outcome, Now: now}
	}
	return []Request{
		submit("a", []int{0}, "D", 10, 12, 0),
		submit("", []int{0, 1}, "E", 11, 9.5, 1),
		submit("b", []int{0}, "C", 13, 10.25, 2),
		report(1, 6, 2.5),
		submit("a", []int{0}, "D", 10, 12, 3),
		{Op: OpCheckpoint},
		report(2, 2, 3.5),
		submit("", []int{0}, "D", 12.5, 12.5, 4),
		report(3, 9, 4.5),
		submit("c", []int{0, 1}, "B", 9, 14, 5),
		report(4, 5, 5.5),
		report(1, 6, 6),
	}
}

// TestCheckpointPayloadGolden pins the bytes a checkpoint writes after
// checkpointScript: the snapshot is the on-disk half of the books.
func TestCheckpointPayloadGolden(t *testing.T) {
	dir := t.TempDir()
	srv := journalledBooksServer(t, dir)
	for i, req := range checkpointScript() {
		if resp := srv.respond(req); resp.Status != StatusOK && !(req.Op == OpReport && req.Outcome == 9) {
			t.Fatalf("request %d (%+v): %+v", i, req, resp)
		}
	}
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := append(rec.Snapshot, '\n')
	want, err := os.ReadFile(checkpointGoldenFile)
	if os.IsNotExist(err) {
		if err := os.WriteFile(checkpointGoldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded the current payload; review and commit it", checkpointGoldenFile)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint payload differs from %s:\n got  %s want %s", checkpointGoldenFile, got, want)
	}
}
