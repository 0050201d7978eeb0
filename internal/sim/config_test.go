package sim

import (
	"encoding/json"
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

// TestExplicitZeroWeights: an absent tc_weight or flat_overhead_pct keeps
// the paper default, while an explicit 0 is a weight the file asks for and
// runs as 0, both from a file and through Config.
func TestExplicitZeroWeights(t *testing.T) {
	got, err := ParseScenarios([]byte(`[{"heuristic": "mct", "tasks": 20, "tc_weight": 0},
		{"heuristic": "mct", "tasks": 20, "tc_weight": 15},
		{"heuristic": "mct", "tasks": 20, "flat_overhead_pct": 0},
		{"heuristic": "mct", "tasks": 20}]`))
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]float64{{0, 50}, {15, 50}, {15, 0}, {15, 50}}
	for i, sc := range got {
		if w := [2]float64{sc.TCWeight, sc.FlatOverheadPct}; w != want[i] {
			t.Errorf("entry %d: (tc_weight, flat_overhead_pct) = %v, want %v", i, w, want[i])
		}
	}
	zero := PaperScenario("mct", 20, workload.Inconsistent)
	zero.TCWeight, zero.FlatOverheadPct = 0, 0
	back, err := zero.Config().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if back != zero {
		t.Fatalf("round trip changed zero weights:\n  orig %+v\n  back %+v", zero, back)
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
	want := []Scenario{
		PaperScenario("mct", 50, workload.Inconsistent),
		PaperScenario("minmin", 100, workload.Consistent),
	}
	data, err := json.Marshal([]ScenarioConfig{want[0].Config(), want[1].Config()})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseScenarios(data)
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
	got, err := ParseScenarios([]byte(`{"heuristic": "sufferage", "tasks": 25, "consistency": "consistent"}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Heuristic != "sufferage" || got[0].Mode != Batch {
		t.Fatalf("loaded %+v", got)
	}
}

func TestLoadScenariosErrors(t *testing.T) {
	for name, body := range map[string]string{
		"garbage":  "{{{",
		"empty":    "[]",
		"trailing": `{"heuristic":"mct","tasks":20} }`,
		"bad":      `[{"heuristic":"mct","tasks":0}]`,
	} {
		if _, err := ParseScenarios([]byte(body)); err == nil {
			t.Errorf("%s file accepted", name)
		}
	}
	// A misspelled key must not silently select the paper default, in
	// either file shape; the shipped configs carry only known keys.
	for name, body := range map[string]string{
		"array":  `[{"heuristic":"mct","tasks":20,"tc_wieght":0.001}]`,
		"object": `{"heuristic":"mct","tasks":20,"fault":{"mtfb":100}}`,
	} {
		if _, err := ParseScenarios([]byte(body)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: misspelled key: got %v, want an unknown-field error", name, err)
		}
	}
	for _, shipped := range []string{"paper-tables.json", "extensions.json"} {
		data, err := os.ReadFile(filepath.Join("../../configs", shipped))
		if err == nil {
			_, err = ParseScenarios(data)
		}
		if err != nil {
			t.Errorf("configs/%s: %v", shipped, err)
		}
	}
}

// TestConfigScenarioRunnable loads a config and actually runs it.
func TestConfigScenarioRunnable(t *testing.T) {
	scs, err := ParseScenarios([]byte(`{"heuristic": "mct", "tasks": 20}`))
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
