package trust

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// zooFixtureDir holds one snapshot per zoo model and the Trust answers the
// model gave after writing it, all written by the code at d9eb9e9, before
// the observation tallies moved onto the relationship records.  Each
// snapshot carries tallies, two of them about relationships that were
// pruned, one relationship revived by SetDirect after its prune and one by
// Observe, a recommender factor, an alliance and a self-observation.
const zooFixtureDir = "testdata/zoo_snapshots_d9eb9e9"

// fixtureTrust is one recorded Trust answer, its float64 bits in hex.
type fixtureTrust struct {
	Model string   `json:"model"`
	X     EntityID `json:"x"`
	Y     EntityID `json:"y"`
	Ctx   Context  `json:"ctx"`
	Now   float64  `json:"now"`
	Bits  string   `json:"bits"`
}

// TestZooSnapshotFixture imports each recorded snapshot into a fresh model,
// requires the re-export to be the same bytes and every Trust answer to be
// the recorded bits.
func TestZooSnapshotFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(zooFixtureDir, "trust.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want []fixtureTrust
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	models := map[string]Model{}
	for _, name := range []string{"purge", "frtrust", "bawa"} {
		raw, err := os.ReadFile(filepath.Join(zooFixtureDir, name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(raw, &snap); err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(name, Config{Alpha: 0.7, Beta: 0.3, InitialScore: 3.5, UpdateBatch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Import(&snap); err != nil {
			t.Fatalf("%s: import: %v", name, err)
		}
		again, err := json.MarshalIndent(m.Export(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if again = append(again, '\n'); !bytes.Equal(again, raw) {
			t.Fatalf("%s: re-export differs from the recorded snapshot:\n%s", name, again)
		}
		models[name] = m
	}
	if len(want) == 0 {
		t.Fatal("no recorded Trust answers")
	}
	for _, w := range want {
		got, err := models[w.Model].Trust(w.X, w.Y, w.Ctx, w.Now)
		if err != nil {
			t.Fatal(err)
		}
		if bits := fmt.Sprintf("%016x", math.Float64bits(got)); bits != w.Bits {
			t.Errorf("%s Trust(%s,%s,%s,%g) = %s (%v), recorded %s", w.Model, w.X, w.Y, w.Ctx, w.Now, bits, got, w.Bits)
		}
	}
}
