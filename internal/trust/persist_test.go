package trust

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func populatedEngine(t *testing.T) *Engine {
	t.Helper()
	e := newTestEngine(t, Config{Alpha: 0.7, Beta: 0.3})
	if err := e.SetDirect("a", "b", "compute", 4.5, 10); err != nil {
		t.Fatal(err)
	}
	if err := e.SetDirect("c", "b", "storage", 2, 20); err != nil {
		t.Fatal(err)
	}
	if err := e.SetRecommenderFactor("c", "b", 0.8); err != nil {
		t.Fatal(err)
	}
	e.DeclareAlliance("d", "b")
	return e
}

func TestExportImportRoundTrip(t *testing.T) {
	e := populatedEngine(t)
	snap := e.Export()
	if len(snap.Relationships) != 2 || len(snap.Recommenders) != 1 || len(snap.Alliances) != 1 {
		t.Fatalf("snapshot shape: %d/%d/%d", len(snap.Relationships), len(snap.Recommenders), len(snap.Alliances))
	}

	fresh := newTestEngine(t, Config{Alpha: 0.7, Beta: 0.3})
	if err := fresh.Import(snap); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		x, y EntityID
		c    Context
	}{{"a", "b", "compute"}, {"c", "b", "storage"}} {
		orig, err := e.Direct(probe.x, probe.y, probe.c, 30)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Direct(probe.x, probe.y, probe.c, 30)
		if err != nil {
			t.Fatal(err)
		}
		if got != orig {
			t.Fatalf("direct trust %s→%s differs: %g vs %g", probe.x, probe.y, got, orig)
		}
	}
	if !fresh.Allied("d", "b") || !fresh.Allied("b", "d") {
		t.Fatal("alliance lost in round trip")
	}
	if fresh.Relationships() != e.Relationships() {
		t.Fatal("relationship count differs")
	}
}

func TestSaveLoadJSON(t *testing.T) {
	e := populatedEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version": 1`, `"from": "a"`, `"score": 4.5`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %q:\n%s", want, out)
		}
	}
	fresh := newTestEngine(t, Config{Alpha: 0.7, Beta: 0.3})
	if err := fresh.Load(strings.NewReader(out)); err != nil {
		t.Fatal(err)
	}
	g, err := fresh.Trust("a", "b", "compute", 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Trust("a", "b", "compute", 10)
	if err != nil {
		t.Fatal(err)
	}
	if g != want {
		t.Fatalf("loaded trust %g, want %g", g, want)
	}
}

func TestExportDeterministic(t *testing.T) {
	e := populatedEngine(t)
	var a, b bytes.Buffer
	if err := e.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := e.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("export is not deterministic")
	}
}

func TestImportValidation(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	if err := e.Import(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if err := e.Import(&Snapshot{Version: 99}); err == nil {
		t.Error("unknown version accepted")
	}
	if err := e.Import(&Snapshot{Version: 1, Relationships: []RelationshipRecord{
		{From: "x", To: "y", Ctx: "c", Score: 9},
	}}); err == nil {
		t.Error("off-scale score accepted")
	}
	if err := e.Import(&Snapshot{Version: 1, Recommenders: []RecommenderRecord{
		{From: "x", About: "y", Factor: 2},
	}}); err == nil {
		t.Error("off-range recommender factor accepted")
	}
	// A failed import must not have mutated the engine.
	if e.Relationships() != 0 {
		t.Error("rejected import leaked state")
	}
}

// TestImportRejectsNonFinite pins that a snapshot cannot smuggle in what
// SetDirect and SetRecommenderFactor refuse: a NaN score or factor, or a
// non-finite last transaction time.  Each is refused before any record is
// installed, by the paper engine and by every zoo model, whose Import goes
// through the engine's.
func TestImportRejectsNonFinite(t *testing.T) {
	good := RelationshipRecord{From: "a", To: "y", Ctx: "c", Score: 4, LastTx: 1}
	bad := map[string]*Snapshot{
		"NaN score": {Version: 1, Relationships: []RelationshipRecord{good,
			{From: "x", To: "y", Ctx: "c", Score: math.NaN()}}},
		"NaN factor": {Version: 1, Relationships: []RelationshipRecord{good},
			Recommenders: []RecommenderRecord{{From: "x", About: "y", Factor: math.NaN()}}},
		"NaN last_tx": {Version: 1, Relationships: []RelationshipRecord{good,
			{From: "x", To: "y", Ctx: "c", Score: 3, LastTx: math.NaN()}}},
		"+Inf last_tx": {Version: 1, Relationships: []RelationshipRecord{good,
			{From: "x", To: "y", Ctx: "c", Score: 3, LastTx: math.Inf(1)}}},
		"-Inf last_tx": {Version: 1, Relationships: []RelationshipRecord{good,
			{From: "x", To: "y", Ctx: "c", Score: 3, LastTx: math.Inf(-1)}}},
	}
	for _, name := range ModelNames() {
		for what, snap := range bad {
			m, err := NewModel(name, defaultCfg())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Import(snap); err == nil {
				t.Errorf("%s: snapshot with a %s accepted", name, what)
			}
			if n := m.(engineModel).Relationships(); n != 0 {
				t.Errorf("%s: rejected snapshot with a %s installed %d relationships", name, what, n)
			}
			if v, err := m.Trust("z", "y", "c", 2); err != nil || math.IsNaN(v) {
				t.Errorf("%s: after a rejected snapshot with a %s, Trust = %v, %v", name, what, v, err)
			}
		}
	}
}

func TestSnapshotVersionErrorTyped(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	err := e.Import(&Snapshot{Version: 99})
	if err == nil {
		t.Fatal("unknown version accepted")
	}
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("errors.Is(err, ErrSnapshotVersion) = false for %v", err)
	}
	var verr *SnapshotVersionError
	if !errors.As(err, &verr) {
		t.Fatalf("errors.As failed for %v", err)
	}
	if verr.Version != 99 {
		t.Fatalf("reported version %d, want 99", verr.Version)
	}
	// Load must propagate the sentinel through JSON parsing too.
	lerr := e.Load(strings.NewReader(`{"version": 7}`))
	if !errors.Is(lerr, ErrSnapshotVersion) {
		t.Fatalf("Load did not surface ErrSnapshotVersion: %v", lerr)
	}
	// Other import failures must NOT match the sentinel.
	serr := e.Import(&Snapshot{Version: 1, Relationships: []RelationshipRecord{
		{From: "x", To: "y", Ctx: "c", Score: 9},
	}})
	if errors.Is(serr, ErrSnapshotVersion) {
		t.Fatalf("score error wrongly matches ErrSnapshotVersion: %v", serr)
	}
}

func TestImportMergesWithoutClobbering(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0})
	if err := e.SetDirect("keep", "me", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	other := populatedEngine(t)
	if err := e.Import(other.Export()); err != nil {
		t.Fatal(err)
	}
	g, err := e.Direct("keep", "me", "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if g != 6 {
		t.Fatalf("pre-existing relationship clobbered: %g", g)
	}
	if e.Relationships() != 3 {
		t.Fatalf("merged relationship count = %d, want 3", e.Relationships())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	e := newTestEngine(t, defaultCfg())
	if err := e.Load(strings.NewReader("{not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestExportExcludesPendingBatches(t *testing.T) {
	e := newTestEngine(t, Config{Alpha: 1, Beta: 0, UpdateBatch: 5})
	if _, err := e.Observe("x", "y", "c", 6, 0); err != nil {
		t.Fatal(err)
	}
	snap := e.Export()
	if len(snap.Relationships) != 1 {
		t.Fatalf("relationships = %d", len(snap.Relationships))
	}
	// The stored score is still the initial one: the batch (1 of 5 obs)
	// has not committed, and pending evidence must not leak.
	if snap.Relationships[0].Score != MinScore {
		t.Fatalf("pending batch leaked into export: score %g", snap.Relationships[0].Score)
	}
}
