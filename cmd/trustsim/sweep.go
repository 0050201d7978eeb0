package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"

	"gridtrust/internal/exp"
	"gridtrust/internal/fault"
	"gridtrust/internal/report"
	"gridtrust/internal/sim"
	"gridtrust/internal/trust"
)

// A sweep is one experiment file (DESIGN.md §9): a JSON list of
// sim.ScenarioConfig cells (or one), each printed as one comparison row,
// or an object wrapping that list as "scenarios" beside the table's
// title, its label column, its chart series, or a kind: a Go builder with
// tables of its own, run around the one base scenario the file lists.
type sweep struct {
	Title     string          `json:"title"`
	Label     string          `json:"label"`
	Chart     string          `json:"chart"`
	Kind      string          `json:"kind"`
	Scenarios json.RawMessage `json:"scenarios"`

	cells []sim.Scenario
	// bare marks a file that is only scenarios; it prints what the removed
	// `trustsim -config` printed, with no blank line after the table.
	bare bool
}

var kinds = map[string]func(context.Context, config, sim.Scenario) error{
	"evolving": sweepEvolving,
	"deadline": sweepDeadline,
	"staging":  sweepStaging,
	"fault":    sweepFault,
	"trustzoo": sweepTrustzoo,
}

// config is what a sweep's tables need beyond the file.
type config struct {
	gridFlags
	chart bool
	ck    *exp.Checkpoint
	salt  string
}

// cmdSweep runs one experiment file.  With -checkpoint, every completed
// cell is journalled as it finishes, and a re-run against the directory
// restores finished cells, so an interrupted sweep (exit 130) resumes
// where it stopped and prints byte-identical output.
func cmdSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim sweep", flag.ExitOnError)
	var cfg config
	cfg.register(fs, 30)
	fs.BoolVar(&cfg.chart, "chart", false, "also render an improvement bar chart when the file names a chart series")
	ckDir := fs.String("checkpoint", "", "checkpoint directory: journal completed cells and, on re-run, skip them (\"\" disables)")
	stopProf, err := cfg.parse(fs, args)
	if err != nil {
		return err
	}
	defer stopProf()
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: trustsim sweep [flags] file.json (flags before the file), got arguments %q", fs.Args())
	}
	s, err := loadSweep(fs.Arg(0))
	if err != nil {
		return err
	}
	if s.bare {
		s.Title = fmt.Sprintf("Scenarios from %s (%d reps, seed %d)", fs.Arg(0), cfg.reps, cfg.seed)
	}
	if *ckDir != "" {
		if cfg.ck, err = exp.OpenCheckpoint(*ckDir); err != nil {
			return fmt.Errorf("checkpoint: %v", err)
		}
		defer func() {
			// Compacted, a re-run recovers from one snapshot, not the tail.
			if err := errors.Join(cfg.ck.Compact(), cfg.ck.Close()); err != nil {
				fmt.Fprintf(os.Stderr, "trustsim: checkpoint: %v\n", err)
			}
		}()
		// The salt is the file's resolved content, so an edited cell never
		// restores a stale result; seed, reps and cell name are in the key.
		cfg.salt = fmt.Sprintf("%x", sha256.Sum256(
			fmt.Appendf(nil, "%s|%s|%+v", s.Kind, cfg.trustModel, s.cells)))
	}
	if s.Kind != "" {
		return kinds[s.Kind](ctx, cfg, s.cells[0])
	}
	return runCells(ctx, cfg, s)
}

// loadSweep reads and checks an experiment file before any cell runs.
func loadSweep(path string) (*sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &sweep{Label: "scenario", Scenarios: data, bare: true}
	// An object without "scenarios" is one bare scenario, a list of one.
	var keys map[string]json.RawMessage
	if json.NewDecoder(bytes.NewReader(data)).Decode(&keys) == nil && keys["scenarios"] != nil {
		s.Scenarios, s.bare = nil, false
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err = dec.Decode(s); err == nil && len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
			err = fmt.Errorf("data after the top-level value")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if s.cells, err = sim.ParseScenarios(s.Scenarios); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	switch {
	case s.Kind == "":
		return s, nil
	case kinds[s.Kind] == nil:
		var known []string
		for k := range kinds {
			known = append(known, k)
		}
		slices.Sort(known)
		return nil, fmt.Errorf("%s: unknown kind %q (known: %v)", path, s.Kind, known)
	case len(s.cells) != 1 || s.Title != "" || s.Label != "scenario" || s.Chart != "":
		return nil, fmt.Errorf("%s: kind %q builds its own tables from one base scenario: no title, label or chart", path, s.Kind)
	}
	return s, nil
}

// gridOptions builds the engine options shared by every grid of a sweep.
func (cfg config) gridOptions() sim.GridOptions {
	return sim.GridOptions{Seed: cfg.seed, Reps: cfg.reps, Workers: cfg.workers,
		OnCell: progress(cfg.verbose), Checkpoint: cfg.ck, CheckpointSalt: cfg.salt}
}

// runCells runs a plain sweep's cells as one grid and renders one standard
// metric row per cell (plus a chart series point when the file names one).
func runCells(ctx context.Context, cfg config, s *sweep) error {
	cells := make([]sim.CompareCell, len(s.cells))
	for i, sc := range s.cells {
		sc.TrustModel = cfg.trustModel
		cells[i] = sim.CompareCell{Name: sc.Name, Scenario: sc}
	}
	cmps, err := sim.CompareGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	tb := sim.ComparisonTable(s.Title, s.Label, cells, cmps)
	if s.bare {
		return printTable(tb, cfg.format)
	}
	var series *report.Series
	if cfg.chart && s.Chart != "" {
		series = &report.Series{Name: s.Chart}
		for i, cmp := range cmps {
			series.AddPoint(cells[i].Name, cmp.ImprovementPercent())
		}
	}
	return emit(cfg, tb, series)
}

// emit prints the table and, when a chart series is given, an improvement
// bar chart underneath.
func emit(cfg config, tb *report.Table, series *report.Series) error {
	if err := printTable(tb, cfg.format); err != nil {
		return err
	}
	if series != nil {
		chart, err := report.BarChart(series, 76)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s", chart)
	}
	fmt.Println()
	return nil
}

// sweepEvolving varies the misbehaving domain's incident rate in the
// evolving-trust experiment and reports how decisively placements shift,
// as mean ± CI95 over cfg.reps independent replications.  It reads only
// the base scenario's task count, as sweepStaging does.
func sweepEvolving(ctx context.Context, cfg config, base sim.Scenario) error {
	tb := report.NewTable(
		fmt.Sprintf("Evolving-trust sweep (%d requests per run, mean ± CI95 over %d reps)", base.Tasks, cfg.reps),
		"incident prob", "early share on bad RD", "late share on bad RD",
		"final trust (good/bad)", "incidents/rep (good/bad)")
	probs := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75}
	cells := make([]sim.EvolvingCell, len(probs))
	for i, prob := range probs {
		cells[i] = sim.EvolvingCell{
			Name: fmt.Sprintf("%.2f", prob),
			Config: sim.EvolvingConfig{
				Requests:               base.Tasks,
				UnreliableIncidentProb: prob,
			},
		}
	}
	results, err := sim.EvolvingGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	for i, res := range results {
		tb.AddRow(
			cells[i].Name,
			sim.SharePlusMinus(res.EarlyShare),
			sim.SharePlusMinus(res.LateShare),
			fmt.Sprintf("%.1f/%.1f", res.FinalTrustReliable.Mean(), res.FinalTrustUnreliable.Mean()),
			fmt.Sprintf("%.1f/%.1f", res.IncidentsReliable.Mean(), res.IncidentsUnreliable.Mean()),
		)
	}
	return emit(cfg, tb, nil)
}

// sweepDeadline attaches deadlines of varying slack and reports the miss
// rates of the trust-aware and trust-unaware schedulers — the QoS
// extension of DESIGN.md §6.
func sweepDeadline(ctx context.Context, cfg config, base sim.Scenario) error {
	tb := report.NewTable(
		fmt.Sprintf("Deadline sweep (MCT, inconsistent LoLo, %d tasks)", base.Tasks),
		"slack x mean EEC", "miss rate (unaware)", "miss rate (aware)", "improvement (avg completion)")
	slacks := []float64{2, 4, 8, 16, 32}
	cells := make([]sim.CompareCell, len(slacks))
	for i, slack := range slacks {
		sc := base
		sc.DeadlineSlack = slack
		sc.TrustModel = cfg.trustModel
		cells[i] = sim.CompareCell{Name: fmt.Sprintf("%g", slack), Scenario: sc}
	}
	cmps, err := sim.CompareGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	for i, cmp := range cmps {
		tb.AddRow(
			cells[i].Name,
			report.Fraction(cmp.Unaware.MissRate.Mean(), 1),
			report.Fraction(cmp.Aware.MissRate.Mean(), 1),
			report.Percent(cmp.ImprovementPercent(), 2),
		)
	}
	return emit(cfg, tb, nil)
}

// sweepStaging varies the per-request input size and reports the gain of
// trusting rcp transfers over blanket scp — the experiment connecting
// Tables 2-3 to the scheduling story.
func sweepStaging(ctx context.Context, cfg config, base sim.Scenario) error {
	tb := report.NewTable(
		fmt.Sprintf("Data-staging sweep (greedy MCT, %d requests, 100 Mbps link)", base.Tasks),
		"max input MB", "improvement", "plain-transfer share")
	sizes := []float64{10, 100, 500, 1000, 2000}
	cells := make([]sim.StagingCell, len(sizes))
	for i, maxMB := range sizes {
		cells[i] = sim.StagingCell{
			Name:   fmt.Sprintf("%g", maxMB),
			Config: sim.StagingConfig{Requests: base.Tasks, MaxInputMB: maxMB},
		}
	}
	results, err := sim.StagingGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	for i, res := range results {
		tb.AddRow(
			cells[i].Name,
			report.Percent(res.Improvement.Mean(), 2),
			report.Fraction(res.PlainShare.Mean(), 1),
		)
	}
	return emit(cfg, tb, nil)
}

// sweepFault renders two tables.  The first sweeps machine churn (MTBF)
// × adversary fraction through the DES comparison: makespan inflation,
// crash/requeue counts and the decision-table corruption whitewashers
// cause.  The second runs the recommender-collusion study across liar
// fractions, contrasting the unweighted reputation formula with the
// R-weighted + purging defense the paper's Section 3 machinery provides.
func sweepFault(ctx context.Context, cfg config, base sim.Scenario) error {
	tb := report.NewTable(
		fmt.Sprintf("Fault sweep (MCT, inconsistent LoLo, %d tasks)", base.Tasks),
		"mtbf/adversary", "makespan (aware)", "failures", "requeues",
		"wasted work", "table error", "improvement")
	base.TrustModel = cfg.trustModel
	cells := sim.ChurnCells(base, []float64{0, 2000, 1000}, []float64{0, 0.25, 0.5})
	cmps, err := sim.CompareGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	for i, cmp := range cmps {
		tb.AddRow(cells[i].Name,
			report.Seconds(cmp.Aware.Makespan.Mean()),
			fmt.Sprintf("%.1f", cmp.Aware.Failures.Mean()),
			fmt.Sprintf("%.1f", cmp.Aware.Requeues.Mean()),
			report.Seconds(cmp.Aware.WastedWork.Mean()),
			fmt.Sprintf("%.2f", cmp.Aware.TrustTableError.Mean()),
			report.Percent(cmp.ImprovementPercent(), 2),
		)
	}
	if err := emit(cfg, tb, nil); err != nil {
		return err
	}

	scells := sim.FaultStudyCells([]float64{0.25, 0.5, 0.75})
	results, err := sim.FaultStudyGrid(ctx, scells, cfg.gridOptions())
	if err != nil {
		return err
	}
	return emit(cfg, sim.CollusionTable(
		fmt.Sprintf("Recommender-collusion study (mean ± CI95 over %d reps)", cfg.reps), scells, results,
		"liar fraction/variant", "trust error", "degradation", "bad share", "liar R"), nil)
}

// sweepTrustzoo renders two tables.  The first is the head-to-head zoo:
// every registered trust model against every adversary environment
// (lying cliques, whitewashers, oscillators, Weibull churn) in the closed
// recommender loop, with trust error and placement degradation as mean ±
// CI95.  The second drops each model into the DES scheduler itself —
// whitewashing adversaries plus churn over the paper's MCT workload —
// and reports the makespan each model's decision view produces, relative
// to the fault-free baseline.
func sweepTrustzoo(ctx context.Context, cfg config, base sim.Scenario) error {
	models := trust.ModelNames()
	cells := sim.ZooCells(models, fault.ZooScenarios())
	results, err := sim.ZooGrid(ctx, cells, cfg.gridOptions())
	if err != nil {
		return err
	}
	if err := emit(cfg, sim.ZooTable(
		fmt.Sprintf("Trust-model zoo (mean ± CI95 over %d reps)", cfg.reps), cells, results,
		"scenario/model", "trust error", "degradation", "bad share"), nil); err != nil {
		return err
	}

	tb2 := report.NewTable(
		fmt.Sprintf("Model-driven scheduling under adversaries (MCT, %d tasks, whitewash + churn)", base.Tasks),
		"model", "makespan (aware)", "vs baseline", "table error", "improvement")
	// Pin the domain count: the paper spec draws NumRDs from [1,4] per
	// replication, under which a 0.5 adversary fraction often selects
	// zero whitewashing domains.  Four RDs guarantee the adversary
	// environment actually exists in (almost) every replication.
	base.NumRDs = 4
	clean := base
	clean.Name = base.Name + "/clean"
	mcells := []sim.CompareCell{{Name: "baseline (no faults)", Scenario: clean}}
	for _, m := range models {
		sc := base
		sc.Fault = fault.Plan{AdversaryFraction: 0.5, MTBF: 2000, MTTR: 200}
		sc.TrustModel = m
		sc.Name = fmt.Sprintf("%s/model=%s", base.Name, m)
		mcells = append(mcells, sim.CompareCell{Name: m, Scenario: sc})
	}
	mcmps, err := sim.CompareGrid(ctx, mcells, cfg.gridOptions())
	if err != nil {
		return err
	}
	baseMakespan := mcmps[0].Aware.Makespan.Mean()
	for i, cmp := range mcmps {
		m := cmp.Aware.Makespan
		tb2.AddRow(mcells[i].Name,
			fmt.Sprintf("%s ± %.0f", report.Seconds(m.Mean()), m.CI95()),
			report.Percent((m.Mean()-baseMakespan)/baseMakespan*100, 2),
			fmt.Sprintf("%.2f ± %.2f", cmp.Aware.TrustTableError.Mean(), cmp.Aware.TrustTableError.CI95()),
			report.Percent(cmp.ImprovementPercent(), 2),
		)
	}
	return emit(cfg, tb2, nil)
}
