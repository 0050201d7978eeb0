package sim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/workload"
)

func TestScenarioConfigRoundTrip(t *testing.T) {
	orig := PaperScenario("sufferage", 100, workload.Consistent)
	back, err := orig.Config().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("round trip changed scenario:\n  orig %+v\n  back %+v", orig, back)
	}
}

func TestScenarioConfigDefaults(t *testing.T) {
	sc, err := ScenarioConfig{Heuristic: "mct", Tasks: 50}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mode != Immediate {
		t.Error("mode not inferred from heuristic")
	}
	if sc.Machines != 5 || sc.ArrivalRate != 0.04 || sc.TCWeight != 15 ||
		sc.FlatOverheadPct != 50 || sc.BatchInterval != DefaultBatchInterval {
		t.Errorf("paper defaults not applied: %+v", sc)
	}
	if sc.Heterogeneity != workload.LoLo || sc.Consistency != workload.Inconsistent {
		t.Errorf("workload defaults wrong: %+v", sc)
	}
	if sc.ETSRule != grid.ETSLinear {
		t.Errorf("ETS rule default = %v, want linear", sc.ETSRule)
	}
	if sc.Name == "" {
		t.Error("name not synthesised")
	}
	// Batch inference for batch heuristics.
	sc, err = ScenarioConfig{Heuristic: "minmin", Tasks: 50}.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Mode != Batch {
		t.Error("batch mode not inferred for minmin")
	}
}

func TestScenarioConfigParsing(t *testing.T) {
	good := ScenarioConfig{
		Mode: "batch", Heuristic: "maxmin", Tasks: 30,
		Heterogeneity: "HiHi", Consistency: "semi-consistent",
		ETSRule: "table1",
	}
	sc, err := good.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Heterogeneity != workload.HiHi || sc.Consistency != workload.SemiConsistent ||
		sc.ETSRule != grid.ETSTable1 {
		t.Fatalf("parsed scenario wrong: %+v", sc)
	}

	bad := []ScenarioConfig{
		{Mode: "warp", Heuristic: "mct", Tasks: 10},
		{Heuristic: "mct", Tasks: 10, Consistency: "diagonal"},
		{Heuristic: "mct", Tasks: 10, Heterogeneity: "MegaHi"},
		{Heuristic: "mct", Tasks: 10, ETSRule: "cubic"},
		{Heuristic: "nonsense", Tasks: 10},
		{Heuristic: "mct", Tasks: 0},
	}
	for i, c := range bad {
		if _, err := c.Scenario(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestLoadSaveScenarios(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "scenarios.json")
	want := []Scenario{
		PaperScenario("mct", 50, workload.Inconsistent),
		PaperScenario("minmin", 100, workload.Consistent),
	}
	if err := SaveScenarios(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenarios(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("loaded %d scenarios", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scenario %d differs:\n  %+v\n  %+v", i, got[i], want[i])
		}
	}
}

func TestLoadSingleObject(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.json")
	blob := `{"heuristic": "sufferage", "tasks": 25, "consistency": "consistent"}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadScenarios(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Heuristic != "sufferage" || got[0].Mode != Batch {
		t.Fatalf("loaded %+v", got)
	}
}

func TestLoadScenariosErrors(t *testing.T) {
	if _, err := LoadScenarios("/nonexistent/nope.json"); err == nil {
		t.Error("missing file accepted")
	}
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenarios(garbage); err == nil {
		t.Error("garbage accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenarios(empty); err == nil {
		t.Error("empty array accepted")
	}
	trailing := filepath.Join(dir, "trailing.json")
	if err := os.WriteFile(trailing, []byte(`{"heuristic":"mct","tasks":20} }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenarios(trailing); err == nil {
		t.Error("data after the top-level value accepted")
	}
	badEntry := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badEntry, []byte(`[{"heuristic":"mct","tasks":0}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenarios(badEntry); err == nil {
		t.Error("invalid entry accepted")
	}
	// A misspelled key must not silently select the paper default, in
	// either file shape; the shipped configs carry only known keys.
	for name, body := range map[string]string{
		"array.json":  `[{"heuristic":"mct","tasks":20,"tc_wieght":0.001}]`,
		"object.json": `{"heuristic":"mct","tasks":20,"fault":{"mtfb":100}}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadScenarios(path); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: misspelled key: got %v, want an unknown-field error", name, err)
		}
	}
	for _, shipped := range []string{"paper-tables.json", "extensions.json"} {
		if _, err := LoadScenarios(filepath.Join("../../configs", shipped)); err != nil {
			t.Errorf("configs/%s: %v", shipped, err)
		}
	}
	if err := SaveScenarios(filepath.Join(dir, "x.json"), nil); err == nil {
		t.Error("saving nothing accepted")
	}
}

// TestConfigScenarioRunnable loads a config and actually runs it.
func TestConfigScenarioRunnable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	blob := `{"heuristic": "mct", "tasks": 20}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	scs, err := LoadScenarios(path)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(scs[0], 1, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Reps != 4 {
		t.Fatalf("comparison reps %d", cmp.Reps)
	}
}
