// Command sweep runs the ablation studies DESIGN.md calls out, exploring
// the design space around the paper's fixed choices:
//
//	sweep -mode tcweight       # sensitivity to the "arbitrary" TC weight 15
//	sweep -list                # every registered mode, one line each
//
// Every mode prints one row per configuration with the trust-aware
// improvement over the trust-unaware baseline on identical workloads.
//
// Each mode is a declarative list of cells executed by the experiment
// engine (internal/exp): all cells × replications run as one job stream
// over a single worker pool, results are bit-identical for a fixed -seed
// regardless of -workers, and SIGINT drains the grid cleanly.
//
// With -checkpoint <dir>, every completed cell is journalled to a
// write-ahead log under the directory as it finishes; re-running the same
// sweep against the directory restores finished cells from disk, executes
// only the missing ones, and prints byte-identical output.  An interrupted
// sweep (SIGINT) therefore resumes where it stopped:
//
//	sweep -mode machines -checkpoint /tmp/ck   # ^C partway through
//	sweep -mode machines -checkpoint /tmp/ck   # finishes the rest
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridtrust/internal/exp"
	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/prof"
	"gridtrust/internal/report"
	"gridtrust/internal/sim"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

type config struct {
	mode       string
	seed       uint64
	reps       int
	workers    int
	format     string
	tasks      int
	chart      bool
	verbose    bool
	trustModel string
	ck         *exp.Checkpoint
}

// sweepMode registers one -mode: its name, a one-line description for
// -list, and its runner.
type sweepMode struct {
	name        string
	description string
	run         func(context.Context, config) error
}

// modes is the registry driving -mode dispatch and -list, in display
// order.
var modes = []sweepMode{
	{"heuristics", "all nine heuristics, trust-aware vs unaware", sweepHeuristics},
	{"tcweight", "sensitivity to the paper's fixed TC weight 15", sweepTCWeight},
	{"heterogeneity", "LoLo/LoHi/HiLo/HiHi × consistency classes", sweepHeterogeneity},
	{"batch", "batch-interval sensitivity for the batch heuristics", sweepBatchInterval},
	{"machines", "machine-count scaling at constant per-machine load", sweepMachines},
	{"etsrule", "literal Table 1 F-row vs the linear ETS variant", sweepETSRule},
	{"rate", "arrival-rate (load) sensitivity", sweepRate},
	{"evolving", "evolving trust: incident-rate sensitivity", sweepEvolving},
	{"deadline", "QoS extension: deadline miss rates by slack", sweepDeadline},
	{"staging", "data staging: rcp-when-trusted vs scp-always", sweepStaging},
	{"fault", "machine churn × adversary injection, plus the collusion study", sweepFault},
	{"trustzoo", "every registered trust model vs every adversary environment, head-to-head", sweepTrustzoo},
}

func main() {
	var (
		mode    = flag.String("mode", "heuristics", "sweep mode (see -list)")
		list    = flag.Bool("list", false, "list the registered sweep modes and exit")
		seed    = flag.Uint64("seed", 2002, "master random seed")
		reps    = flag.Int("reps", 30, "paired replications per configuration")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		format  = flag.String("format", "ascii", "output format: ascii, markdown, csv or json")
		tasks   = flag.Int("tasks", 100, "tasks per run")
		chart   = flag.Bool("chart", false, "also render an improvement bar chart for scalar sweeps")
		verbose = flag.Bool("v", false, "print per-cell progress and timing to stderr")
		trustM  = flag.String("trust-model", "", "trust model driving the scheduler's decision view in scenario sweeps (default: the paper's static table; see -list)")
		ckDir   = flag.String("checkpoint", "", "checkpoint directory: journal completed cells and, on re-run, skip them (\"\" disables)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	if *list {
		for _, m := range modes {
			fmt.Printf("%-14s %s\n", m.name, m.description)
		}
		fmt.Println("\ntrust models (-trust-model):")
		for _, m := range trust.Models() {
			fmt.Printf("%-14s %s\n", m.Name, m.Description)
		}
		return
	}
	if !trust.KnownModel(*trustM) {
		fatalf("unknown trust model %q (see -list)", *trustM)
	}
	if err := report.CheckFormat(*format); err != nil {
		fatalf("%v", err)
	}
	cfg := config{mode: *mode, seed: *seed, reps: *reps, workers: *workers, format: *format,
		tasks: *tasks, chart: *chart, verbose: *verbose, trustModel: *trustM}
	if *ckDir != "" {
		ck, err := exp.OpenCheckpoint(*ckDir)
		if err != nil {
			fatalf("checkpoint: %v", err)
		}
		cfg.ck = ck
	}

	// SIGINT/SIGTERM cancel the grid: in-flight replications finish, the
	// pool drains, and the run reports the interruption instead of dying
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = fmt.Errorf("unknown mode %q (try -list)", *mode)
	for _, m := range modes {
		if m.name == *mode {
			err = m.run(ctx, cfg)
			break
		}
	}
	if cfg.ck != nil {
		// Compact before closing so re-runs recover from one snapshot
		// instead of replaying the whole record tail; an interrupted run
		// keeps whatever cells it finished either way.
		if cerr := cfg.ck.Compact(); cerr != nil {
			fmt.Fprintf(os.Stderr, "sweep: checkpoint compact: %v\n", cerr)
		}
		if cerr := cfg.ck.Close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "sweep: checkpoint close: %v\n", cerr)
		}
	}
	stopProf()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sweep: "+format+"\n", args...)
	os.Exit(1)
}

// gridOptions builds the engine options shared by every mode, wiring the
// progress hook when -v is set.
func (cfg config) gridOptions() sim.GridOptions {
	opts := sim.GridOptions{Seed: cfg.seed, Reps: cfg.reps, Workers: cfg.workers}
	if cfg.ck != nil {
		opts.Checkpoint = cfg.ck
		// Tasks change cell contents without changing cell names (and
		// names collide across modes), so both go into the salt; seed and
		// reps are part of the cell key itself.  The trust model joins
		// only when set, keeping pre-zoo checkpoint directories readable.
		opts.CheckpointSalt = fmt.Sprintf("%s|tasks=%d", cfg.mode, cfg.tasks)
		if cfg.trustModel != "" {
			opts.CheckpointSalt += "|model=" + cfg.trustModel
		}
	}
	if cfg.verbose {
		opts.OnCell = func(p exp.Progress) {
			status := "ok"
			switch {
			case p.Err != nil:
				status = p.Err.Error()
			case p.Cached:
				status = "cached"
			}
			fmt.Fprintf(os.Stderr, "sweep: [%d/%d] %s: %d reps, %s work, %s\n",
				p.Done, p.Cells, p.Cell, p.Reps, p.Work.Round(time.Millisecond), status)
		}
	}
	return opts
}

// stampTrustModel applies the -trust-model selection to every scenario
// cell.  The empty name and the paper's own model both keep the static
// table-driven path (see sim.Scenario.TrustModel), so default invocations
// stay byte-identical to pre-zoo binaries.
func (cfg config) stampTrustModel(cells []sim.CompareCell) []sim.CompareCell {
	for i := range cells {
		cells[i].Scenario.TrustModel = cfg.trustModel
	}
	return cells
}

// compareSweep runs the cells as one grid and renders one standard metric
// row per cell under a column headed label (plus an optional chart series
// point).
func compareSweep(ctx context.Context, cfg config, title, label string, series *report.Series, cells []sim.CompareCell) error {
	cmps, err := sim.CompareGrid(ctx, cfg.stampTrustModel(cells), cfg.gridOptions())
	if err != nil {
		return err
	}
	if series != nil {
		for i, cmp := range cmps {
			series.AddPoint(cells[i].Name, cmp.ImprovementPercent())
		}
	}
	return emit(cfg, sim.ComparisonTable(title, label, cells, cmps), series)
}

// emit prints the table and, when -chart is set and a series was
// collected, an improvement bar chart underneath.
func emit(cfg config, tb *report.Table, series *report.Series) error {
	out, err := tb.Render(cfg.format)
	if err != nil {
		return err
	}
	fmt.Print(out)
	if cfg.chart && series != nil && series.Len() > 0 {
		chart, err := report.BarChart(series, 76)
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Print(chart)
	}
	fmt.Println()
	return nil
}

func sweepHeuristics(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("Heuristic sweep (inconsistent LoLo, %d tasks)", cfg.tasks)
	immediate := []string{"olb", "met", "mct", "kpb", "sa"}
	batch := []string{"minmin", "maxmin", "sufferage", "duplex", "ga", "sanneal", "gsa"}
	var cells []sim.CompareCell
	for _, h := range immediate {
		sc := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
		sc.Heuristic, sc.Mode = h, sim.Immediate
		sc.Name = h
		cells = append(cells, sim.CompareCell{Name: h + " (immediate)", Scenario: sc})
	}
	for _, h := range batch {
		sc := sim.PaperScenario("minmin", cfg.tasks, workload.Inconsistent)
		sc.Heuristic, sc.Mode = h, sim.Batch
		sc.Name = h
		cells = append(cells, sim.CompareCell{Name: h + " (batch)", Scenario: sc})
	}
	return compareSweep(ctx, cfg, title, "heuristic", nil, cells)
}

func sweepTCWeight(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("TC-weight sweep (MCT, inconsistent LoLo, %d tasks; the paper fixes 15)", cfg.tasks)
	series := &report.Series{Name: "trust-aware improvement (%) by TC weight"}
	var cells []sim.CompareCell
	for _, w := range []float64{0, 5, 10, 15, 20, 25, 30, 50} {
		sc := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
		sc.TCWeight = w
		cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%g", w), Scenario: sc})
	}
	return compareSweep(ctx, cfg, title, "TC weight", series, cells)
}

func sweepHeterogeneity(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("Heterogeneity sweep (MCT, %d tasks)", cfg.tasks)
	var cells []sim.CompareCell
	for _, het := range []workload.Heterogeneity{workload.LoLo, workload.LoHi, workload.HiLo, workload.HiHi} {
		for _, cons := range []workload.Consistency{workload.Inconsistent, workload.Consistent, workload.SemiConsistent} {
			sc := sim.PaperScenario("mct", cfg.tasks, cons)
			sc.Heterogeneity = het
			// Heavier classes need proportionally slower arrivals to
			// stay in the near-saturation regime.
			scale := (het.TaskRange * het.MachineRange) / (workload.LoLo.TaskRange * workload.LoLo.MachineRange)
			sc.ArrivalRate = sc.ArrivalRate / scale
			cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%s/%s", het, cons), Scenario: sc})
		}
	}
	return compareSweep(ctx, cfg, title, "class", nil, cells)
}

func sweepBatchInterval(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("Batch-interval sweep (Min-min & Sufferage, inconsistent LoLo, %d tasks)", cfg.tasks)
	var cells []sim.CompareCell
	for _, h := range []string{"minmin", "sufferage"} {
		for _, bi := range []float64{12.5, 25, 50, 100, 200, 400} {
			sc := sim.PaperScenario(h, cfg.tasks, workload.Inconsistent)
			sc.BatchInterval = bi
			cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%s/%g s", h, bi), Scenario: sc})
		}
	}
	return compareSweep(ctx, cfg, title, "heuristic/interval", nil, cells)
}

func sweepMachines(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("Machine-count sweep (MCT, inconsistent LoLo, %d tasks; the paper fixes 5)", cfg.tasks)
	var cells []sim.CompareCell
	for _, m := range []int{2, 5, 10, 20, 40} {
		sc := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
		sc.Machines = m
		// Keep per-machine load constant as the pool grows.
		sc.ArrivalRate = sc.ArrivalRate * float64(m) / 5
		cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%d", m), Scenario: sc})
	}
	return compareSweep(ctx, cfg, title, "machines", nil, cells)
}

func sweepETSRule(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("ETS-rule sweep (all paper heuristics, inconsistent LoLo, %d tasks)", cfg.tasks)
	var cells []sim.CompareCell
	for _, h := range []string{"mct", "minmin", "sufferage"} {
		for _, rule := range []grid.ETSRule{grid.ETSTable1, grid.ETSLinear} {
			sc := sim.PaperScenario(h, cfg.tasks, workload.Inconsistent)
			sc.ETSRule = rule
			cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%s/%s", h, rule), Scenario: sc})
		}
	}
	return compareSweep(ctx, cfg, title, "heuristic/rule", nil, cells)
}

func sweepRate(ctx context.Context, cfg config) error {
	title := fmt.Sprintf("Arrival-rate sweep (MCT, inconsistent LoLo, %d tasks)", cfg.tasks)
	series := &report.Series{Name: "trust-aware improvement (%) by arrival rate"}
	var cells []sim.CompareCell
	for _, r := range []float64{0.01, 0.02, 0.03, 0.04, 0.06, 0.1, 0.2} {
		sc := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
		sc.ArrivalRate = r
		cells = append(cells, sim.CompareCell{Name: fmt.Sprintf("%g", r), Scenario: sc})
	}
	return compareSweep(ctx, cfg, title, "rate (req/s)", series, cells)
}

// sweepEvolving varies the misbehaving domain's incident rate in the
// evolving-trust experiment and reports how decisively placements shift,
// as mean ± CI95 over cfg.reps independent replications.
func sweepEvolving(ctx context.Context, cfg config) error {
	tb := report.NewTable(
		fmt.Sprintf("Evolving-trust sweep (%d requests per run, mean ± CI95 over %d reps)", cfg.tasks, cfg.reps),
		"incident prob", "early share on bad RD", "late share on bad RD",
		"final trust (good/bad)", "incidents/rep (good/bad)")
	probs := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75}
	cells := make([]sim.EvolvingCell, len(probs))
	for i, prob := range probs {
		cells[i] = sim.EvolvingCell{
			Name: fmt.Sprintf("%.2f", prob),
			Config: sim.EvolvingConfig{
				Requests:               cfg.tasks,
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
func sweepDeadline(ctx context.Context, cfg config) error {
	tb := report.NewTable(
		fmt.Sprintf("Deadline sweep (MCT, inconsistent LoLo, %d tasks)", cfg.tasks),
		"slack x mean EEC", "miss rate (unaware)", "miss rate (aware)", "improvement (avg completion)")
	slacks := []float64{2, 4, 8, 16, 32}
	cells := make([]sim.CompareCell, len(slacks))
	for i, slack := range slacks {
		sc := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
		sc.DeadlineSlack = slack
		cells[i] = sim.CompareCell{Name: fmt.Sprintf("%g", slack), Scenario: sc}
	}
	cmps, err := sim.CompareGrid(ctx, cfg.stampTrustModel(cells), cfg.gridOptions())
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
func sweepStaging(ctx context.Context, cfg config) error {
	tb := report.NewTable(
		fmt.Sprintf("Data-staging sweep (greedy MCT, %d requests, 100 Mbps link)", cfg.tasks),
		"max input MB", "improvement", "plain-transfer share")
	sizes := []float64{10, 100, 500, 1000, 2000}
	cells := make([]sim.StagingCell, len(sizes))
	for i, maxMB := range sizes {
		cells[i] = sim.StagingCell{
			Name:   fmt.Sprintf("%g", maxMB),
			Config: sim.StagingConfig{Requests: cfg.tasks, MaxInputMB: maxMB},
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
func sweepFault(ctx context.Context, cfg config) error {
	tb := report.NewTable(
		fmt.Sprintf("Fault sweep (MCT, inconsistent LoLo, %d tasks)", cfg.tasks),
		"mtbf/adversary", "makespan (aware)", "failures", "requeues",
		"wasted work", "table error", "improvement")
	base := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
	cells := sim.ChurnCells(base, []float64{0, 2000, 1000}, []float64{0, 0.25, 0.5})
	cmps, err := sim.CompareGrid(ctx, cfg.stampTrustModel(cells), cfg.gridOptions())
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
func sweepTrustzoo(ctx context.Context, cfg config) error {
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
		fmt.Sprintf("Model-driven scheduling under adversaries (MCT, %d tasks, whitewash + churn)", cfg.tasks),
		"model", "makespan (aware)", "vs baseline", "table error", "improvement")
	base := sim.PaperScenario("mct", cfg.tasks, workload.Inconsistent)
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
