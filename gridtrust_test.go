package gridtrust

import (
	"strings"
	"testing"
)

func TestSimTablesEnumeration(t *testing.T) {
	ids := SimTables()
	if len(ids) != 6 {
		t.Fatalf("SimTables returned %d ids", len(ids))
	}
	for _, id := range ids {
		spec, err := simTable(id)
		if err != nil || spec.Heuristic == "" {
			t.Errorf("table %d has no spec: %v", int(id), err)
		}
		if !strings.HasPrefix(id.Title(), "Table") {
			t.Errorf("table %d title %q", int(id), id.Title())
		}
	}
	if _, err := simTable(Table1ETS); err == nil {
		t.Error("Table 1 accepted as a simulation table")
	}
	// Captions are derived from the one table list; pin the paper's wording.
	if got, want := Table7MinMinConsistent.Title(), "Table 7. Average completion time, consistent LoLo, Min-min heuristic."; got != want {
		t.Errorf("title %q, want %q", got, want)
	}
}

func TestRunSimTableSmall(t *testing.T) {
	res, err := RunSimTable(Table4MCTInconsistent, SimOptions{
		Seed: 1, Reps: 6, TaskCounts: []int{20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	c := res.Cells[0]
	if c.ImprovementPct <= 0 {
		t.Errorf("trust-aware did not improve: %+v", c)
	}
	if c.AwareCompletion >= c.UnawareCompletion {
		t.Errorf("aware completion not below unaware: %+v", c)
	}
	out, err := res.Render().Render("ascii")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Using trust", "No", "Yes", "Improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestRunSimTableRejectsNonSim(t *testing.T) {
	if _, err := RunSimTable(Table2Transfer100, SimOptions{}); err == nil {
		t.Fatal("accepted a non-simulation table")
	}
}

func TestETSRowsMatchesPaperLayout(t *testing.T) {
	out, err := ETSRows().Render("ascii")
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check the F row: all 6s.
	var fRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "| F") {
			fRow = line
		}
	}
	if fRow == "" || strings.Count(fRow, "6") != 5 {
		t.Fatalf("F row wrong: %q", fRow)
	}
}

func TestTransferTables(t *testing.T) {
	for _, mbps := range []float64{100, 1000} {
		tb, err := TransferTable(mbps)
		if err != nil {
			t.Fatal(err)
		}
		out, err := tb.Render("ascii")
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{"rcp", "scp", "Overhead", "1000"} {
			if !strings.Contains(out, want) {
				t.Errorf("%g Mbps table missing %q:\n%s", mbps, want, out)
			}
		}
	}
	if _, err := TransferTable(10); err == nil {
		t.Fatal("accepted uncalibrated link speed")
	}
}

func TestSandboxTableRendering(t *testing.T) {
	out, err := SandboxTable().Render("markdown")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MiSFIT", "SASI", "137%", "264%", "MD5"} {
		if !strings.Contains(out, want) {
			t.Errorf("sandbox table missing %q:\n%s", want, out)
		}
	}
}

func TestTitlesUnique(t *testing.T) {
	seen := map[string]bool{}
	for id := Table1ETS; id <= Table9SufferageConsistent; id++ {
		title := id.Title()
		if seen[title] {
			t.Errorf("duplicate title %q", title)
		}
		seen[title] = true
	}
}

func TestRunEvolvingExperimentFacade(t *testing.T) {
	res, tb, err := RunEvolvingExperiment(EvolvingOptions{Seed: 42, Requests: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.LateUnreliableShare >= res.EarlyUnreliableShare {
		t.Fatalf("no placement shift: %.2f -> %.2f",
			res.EarlyUnreliableShare, res.LateUnreliableShare)
	}
	out, err := tb.Render("ascii")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "early") || !strings.Contains(out, "late") {
		t.Fatalf("summary table wrong:\n%s", out)
	}
}

func TestRunStagingExperimentFacade(t *testing.T) {
	tb, err := RunStagingExperiment(7, 6, 500)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tb.Render("markdown")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "makespan improvement") || !strings.Contains(out, "plain-transfer share") {
		t.Fatalf("staging table wrong:\n%s", out)
	}
	if _, err := RunStagingExperiment(7, 0, 500); err == nil {
		t.Fatal("zero reps accepted")
	}
}
