// Package gridtrust reproduces "Integrating Trust into Grid Resource
// Management Systems" (Azzedin & Maheswaran, ICPP 2002) as a library: a
// trust model for Grid systems, trust-aware scheduling heuristics (MCT,
// Min-min, Sufferage plus the baseline family from Maheswaran et al.), a
// discrete-event simulator, and a benchmark harness that regenerates every
// table of the paper's evaluation.
//
// This root package is the experiment facade: it names each paper table,
// runs the corresponding experiment and renders paper-style rows.  The
// building blocks live in internal packages (see DESIGN.md for the map):
//
//	internal/grid     trust levels, domains, trust-level table, ETS (Table 1)
//	internal/trust    Γ = α·Θ + β·Ω trust engine, decay, agents
//	internal/sched    the mapping heuristics and cost policies
//	internal/workload EEC heterogeneity matrices and request streams
//	internal/des      the discrete-event kernel
//	internal/sim      scenarios, paired runs, parallel replication
//	internal/secover  scp/rcp and sandboxing overhead models (Tables 2-3)
//	internal/core     the TRMS of Figure 1 (agents + table + scheduler)
package gridtrust

import (
	"context"
	"fmt"

	"gridtrust/internal/exp"
	"gridtrust/internal/grid"
	"gridtrust/internal/report"
	"gridtrust/internal/rng"
	"gridtrust/internal/secover"
	"gridtrust/internal/sim"
)

// TableID names a table of the paper.
type TableID int

// The paper's tables.  Table 1 is deterministic (ETS values); Tables 2-3
// come from the calibrated transfer model; Tables 4-9 are simulations.
const (
	Table1ETS TableID = iota + 1
	Table2Transfer100
	Table3Transfer1000
	Table4MCTInconsistent
	Table5MCTConsistent
	Table6MinMinInconsistent
	Table7MinMinConsistent
	Table8SufferageInconsistent
	Table9SufferageConsistent
)

// SimTables lists the six simulation tables (4-9).
func SimTables() []TableID {
	var ids []TableID
	for _, t := range sim.PaperTables() {
		ids = append(ids, TableID(t.Number))
	}
	return ids
}

// simTable returns the heuristic and consistency class behind a
// simulation table.
func simTable(id TableID) (sim.PaperTable, error) {
	for _, t := range sim.PaperTables() {
		if t.Number == int(id) {
			return t, nil
		}
	}
	return sim.PaperTable{}, fmt.Errorf("gridtrust: table %d is not a simulation table", int(id))
}

// Title returns the paper-style caption of a table.
func (id TableID) Title() string {
	switch id {
	case Table1ETS:
		return "Table 1. Expected trust supplement values."
	case Table2Transfer100:
		return "Table 2. Secure versus regular transmission for a 100 Mbps network."
	case Table3Transfer1000:
		return "Table 3. Secure versus regular transmission for a 1000 Mbps network."
	}
	if t, err := simTable(id); err == nil {
		return fmt.Sprintf("Table %d. Average completion time, %s LoLo, %s heuristic.", t.Number, t.Consistency, t.Label)
	}
	return fmt.Sprintf("Table %d", int(id))
}

// SimOptions parameterise a simulation-table reproduction.
type SimOptions struct {
	// Seed feeds the replication streams; fixed seed = fixed output.
	Seed uint64
	// Reps is the number of paired replications per cell (default 40).
	Reps int
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// TaskCounts are the "# of tasks" rows (default 50 and 100).
	TaskCounts []int
	// TrustModel selects the trust policy driving the aware runs.  Empty
	// (or "paper") keeps the static table-driven engine of the paper;
	// any other registered model learns trust online during each run.
	TrustModel string
	// OnCell, when set, receives one progress event per completed
	// (table, task count) cell.
	OnCell func(exp.Progress)
}

// withDefaults fills unset options.
func (o SimOptions) withDefaults() SimOptions {
	if o.Reps == 0 {
		o.Reps = 40
	}
	if len(o.TaskCounts) == 0 {
		o.TaskCounts = []int{50, 100}
	}
	return o
}

// SimCell is one (task count) block of a simulation table: the unaware and
// aware measurements and the improvement, in the paper's layout.
type SimCell struct {
	Tasks int

	UnawareUtilization float64
	UnawareCompletion  float64
	AwareUtilization   float64
	AwareCompletion    float64

	// ImprovementPct is (unaware − aware)/unaware × 100 on completion.
	ImprovementPct float64
	// CompletionCI95 is the ± half-width on the paired completion
	// difference; Significant is true when it excludes zero.
	CompletionCI95 float64
	Significant    bool
}

// SimTableResult is a reproduced simulation table.
type SimTableResult struct {
	ID        TableID
	Heuristic string
	Cells     []SimCell
}

// RunSimTable reproduces one of Tables 4-9.
func RunSimTable(id TableID, opts SimOptions) (*SimTableResult, error) {
	results, err := RunSimTables(context.Background(), []TableID{id}, opts)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunSimTables reproduces several of Tables 4-9 at once: every
// (table, task count) cell is scheduled on one shared worker pool via the
// experiment engine, so small tables no longer serialise behind each
// other.  Each table's numbers are bit-identical to a standalone
// RunSimTable with the same options.
func RunSimTables(ctx context.Context, ids []TableID, opts SimOptions) ([]*SimTableResult, error) {
	opts = opts.withDefaults()
	results := make([]*SimTableResult, len(ids))
	var cells []sim.CompareCell
	for i, id := range ids {
		t, err := simTable(id)
		if err != nil {
			return nil, err
		}
		results[i] = &SimTableResult{ID: id, Heuristic: t.Heuristic}
		for _, tasks := range opts.TaskCounts {
			sc := sim.PaperScenario(t.Heuristic, tasks, t.Consistency)
			sc.TrustModel = opts.TrustModel
			cells = append(cells, sim.CompareCell{
				Name:     fmt.Sprintf("table%d/%d-tasks", int(id), tasks),
				Scenario: sc,
			})
		}
	}
	cmps, err := sim.CompareGrid(ctx, cells, sim.GridOptions{
		Seed: opts.Seed, Reps: opts.Reps, Workers: opts.Workers, OnCell: opts.OnCell,
	})
	if err != nil {
		return nil, fmt.Errorf("gridtrust: %w", err)
	}
	// Comparisons arrive in cell order: table-major, then TaskCounts.
	for i, cmp := range cmps {
		res := results[i/len(opts.TaskCounts)]
		res.Cells = append(res.Cells, SimCell{
			Tasks:              opts.TaskCounts[i%len(opts.TaskCounts)],
			UnawareUtilization: cmp.Unaware.Utilization.Mean(),
			UnawareCompletion:  cmp.Unaware.AvgCompletion.Mean(),
			AwareUtilization:   cmp.Aware.Utilization.Mean(),
			AwareCompletion:    cmp.Aware.AvgCompletion.Mean(),
			ImprovementPct:     cmp.ImprovementPercent(),
			CompletionCI95:     cmp.CompletionPairs.DiffCI95(),
			Significant:        cmp.CompletionPairs.Significant(),
		})
	}
	return results, nil
}

// Render lays the result out like the paper's tables.
func (r *SimTableResult) Render() *report.Table {
	tb := report.NewTable(r.ID.Title(),
		"# of tasks", "Using trust", "Machine utilization", "Ave. completion time (sec)", "Improvement")
	for _, c := range r.Cells {
		tb.AddRow(
			fmt.Sprintf("%d", c.Tasks), "No",
			report.Fraction(c.UnawareUtilization, 2),
			report.Seconds(c.UnawareCompletion),
			report.Percent(c.ImprovementPct, 2),
		)
		tb.AddRow(
			"", "Yes",
			report.Fraction(c.AwareUtilization, 2),
			report.Seconds(c.AwareCompletion),
			"",
		)
	}
	return tb
}

// ETSRows renders Table 1 exactly as printed in the paper, with symbolic
// differences resolved to their numeric values.
func ETSRows() *report.Table {
	tb, err := sim.ETSTable(Table1ETS.Title(), grid.ETSTable1)
	if err != nil {
		panic(err) // the literal rule prices every level pair
	}
	return tb
}

// TransferTable reproduces Table 2 (mbps=100) or Table 3 (mbps=1000), for
// the paper's file sizes unless others are given.
func TransferTable(mbps float64, sizesMB ...float64) (*report.Table, error) {
	id := Table2Transfer100
	if mbps == 1000 {
		id = Table3Transfer1000
	}
	if len(sizesMB) == 0 {
		sizesMB = secover.PaperSizes
	}
	return sim.TransferTable(id.Title(), "Using rcp/(sec)", "Using scp/(sec)", mbps, sizesMB)
}

// SandboxTable renders the Section 5.1 sandboxing overheads.
func SandboxTable() *report.Table {
	tb := report.NewTable("Section 5.1. Sandboxing runtime overheads (MiSFIT / SASI x86SFI).",
		"Benchmark", "MiSFIT", "SASI x86SFI")
	for _, r := range secover.SandboxTable() {
		tb.AddRow(r.Benchmark.String(),
			report.Percent(r.MiSFITPct, 0),
			report.Percent(r.SASIPct, 0))
	}
	return tb
}

// EvolvingOptions parameterises the Section 7 evolving-trust experiment
// through the facade.
type EvolvingOptions struct {
	Seed     uint64
	Requests int
	// UnreliableIncidentProb overrides the misbehaving domain's incident
	// rate (default 0.5).
	UnreliableIncidentProb float64
}

// RunEvolvingExperiment runs the evolving-trust loop (schedule → observe →
// score → update table → placements shift) and renders a paper-style
// summary table alongside the raw result.
func RunEvolvingExperiment(opts EvolvingOptions) (*sim.EvolvingResult, *report.Table, error) {
	res, err := sim.RunEvolving(sim.EvolvingConfig{
		Requests:               opts.Requests,
		UnreliableIncidentProb: opts.UnreliableIncidentProb,
	}, rng.New(opts.Seed))
	if err != nil {
		return nil, nil, err
	}
	tb := report.NewTable("Evolving trust: placements vs observed behaviour",
		"phase", "share on misbehaving RD", "mean trust cost")
	tb.AddRow("early", report.Fraction(res.EarlyUnreliableShare, 1), fmt.Sprintf("%.2f", res.MeanTCEarly))
	tb.AddRow("late", report.Fraction(res.LateUnreliableShare, 1), fmt.Sprintf("%.2f", res.MeanTCLate))
	return res, tb, nil
}

// RunStagingExperiment runs the data-staging experiment (rcp when trusted
// vs blanket scp) across reps replications and renders the summary.
func RunStagingExperiment(seed uint64, reps int, maxInputMB float64) (*report.Table, error) {
	imp, plain, err := sim.StagingSeries(sim.StagingConfig{MaxInputMB: maxInputMB}, seed, reps)
	if err != nil {
		return nil, err
	}
	tb := report.NewTable("Data staging: trusted rcp vs blanket scp",
		"metric", "value")
	tb.AddRow("makespan improvement", report.Percent(imp.Mean(), 2))
	tb.AddRow("improvement CI95", report.Percent(imp.CI95(), 2))
	tb.AddRow("plain-transfer share", report.Fraction(plain.Mean(), 1))
	return tb, nil
}
