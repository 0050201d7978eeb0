package rmswire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gridtrust/internal/core"
	"gridtrust/internal/gridgen"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// TestJournalCrossVersion is the on-disk half of the codec's contract, in
// both directions.  testdata/journal_pr23 was written by the gridtrustd
// of commit f3941c2 (PR 23, the last to journal through encoding/json),
// driven over the wire and then SIGKILLed: a snapshot folding seven
// placements (four keyed) and three reports, and a tail of three
// placements (two keyed) and two reports, one of them for a placement
// the snapshot holds open.  expected.json is what that daemon answered
// before it died: its stats, and the replay of every key.
//
// Old to new: the directory recovers to those answers.  New to old: every
// record appended on top is, byte for byte, json.Marshal of itself, which
// is all the parent's decoder was ever given.
func TestJournalCrossVersion(t *testing.T) {
	const fixture = "testdata/journal_pr23"
	dir := t.TempDir()
	for _, name := range []string{"meta.json", "snap-000000000000000b.snap", "wal-0000000000000001.seg"} {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want struct {
		Stats StatsInfo                `json:"stats"`
		Idem  map[string]PlacementInfo `json:"idem"`
	}
	blob, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}

	// The daemon's own construction (cmd/gridtrustd, meta.json).
	top, err := gridgen.Generate(rng.New(7), gridgen.Spec{GridDomains: 3})
	if err != nil {
		t.Fatal(err)
	}
	trms, err := core.New(core.Config{Topology: top, TCWeight: 15,
		Trust: trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	defer trms.Close()
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	log, rec, err := wal.Create(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Clean() || rec.SnapshotSeq != 11 || len(rec.Records) != 5 {
		t.Fatalf("fixture recovered as snapshot@%d + %d records, clean=%v; want snapshot@11 + 5 records, clean",
			rec.SnapshotSeq, len(rec.Records), rec.Clean())
	}
	if err := srv.AttachJournal(log, rec, 0); err != nil {
		t.Fatal(err)
	}
	if got := *srv.handleStats().Stats; got != want.Stats {
		t.Errorf("stats after recovery:\n got  %+v\n want %+v", got, want.Stats)
	}
	var books daemonSnapshot
	srv.books.export(&books)
	idem := map[string]journalRecord{}
	for _, r := range books.Idem {
		idem[r.IdemKey] = r
	}
	if len(idem) != len(want.Idem) {
		t.Errorf("idempotency table holds %d keys, want %d", len(idem), len(want.Idem))
	}
	for key, p := range want.Idem {
		r, ok := idem[key]
		if !ok || *r.placementInfo() != p {
			t.Errorf("key %s replays %+v, want %+v", key, r.placementInfo(), p)
		}
	}

	// Append on top: a keyed and an unkeyed placement with awkward
	// floats, and reports for a recovered placement and a new one.
	boundary := log.NextSeq()
	eec := []float64{101.5, 97.123456789012345, 1e-7, 88.125, 1e21, 1.0 / 3, 92}
	for _, req := range []Request{
		{Op: OpSubmit, Client: 1, Activities: []int{0, 1}, RTL: "C", EEC: eec, IdemKey: "fx-new <&>", Now: 20.000000001},
		{Op: OpSubmit, Client: 2, Activities: []int{0}, RTL: "E", EEC: eec, Now: 21},
		{Op: OpReport, PlacementID: 4, Outcome: 3.3, Now: 22},
		{Op: OpReport, PlacementID: 11, Outcome: 6, Now: 1e-9},
	} {
		if resp := srv.respond(req); resp.Status != StatusOK {
			t.Fatalf("%s on the recovered daemon: %+v", req.Op, resp)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	for _, w := range after.Records {
		if w.Seq < boundary {
			continue
		}
		appended++
		var r journalRecord
		if err := json.Unmarshal(w.Payload, &r); err != nil {
			t.Fatalf("record %d %s: %v", w.Seq, w.Payload, err)
		}
		if canon, _ := json.Marshal(r); !bytes.Equal(canon, w.Payload) {
			t.Errorf("record %d is not what json.Marshal writes:\n got  %s\n want %s", w.Seq, w.Payload, canon)
		}
	}
	if appended != 4 {
		t.Fatalf("found %d appended records, want 4", appended)
	}
}
