package sim

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"gridtrust/internal/exp"
	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/report"
	"gridtrust/internal/rng"
	"gridtrust/internal/secover"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

// ReportOptions parameterise WriteFullReport.
type ReportOptions struct {
	// Seed and Reps control the stochastic experiments (defaults 2002
	// and 40).
	Seed uint64
	Reps int
	// Workers bounds the replication pool (0 = GOMAXPROCS).
	Workers int
	// Title heads the document.
	Title string
	// OnCell, when set, receives one progress event per completed
	// comparison cell.
	OnCell func(exp.Progress)
}

func (o ReportOptions) withDefaults() ReportOptions {
	if o.Seed == 0 {
		o.Seed = 2002
	}
	if o.Reps == 0 {
		o.Reps = 40
	}
	if o.Title == "" {
		o.Title = "gridtrust experiment report"
	}
	return o
}

// WriteFullReport regenerates every experiment — the paper's Tables 1-9
// and this repository's ablations — and writes one self-contained
// markdown document.  It is the single-command reproduction artefact:
//
//	go run ./cmd/trustsim report > report.md
//
// All stochastic comparison cells (the six simulation tables × task
// counts plus the TC-weight ablation) run as one experiment-engine grid
// on a shared worker pool before any rendering begins; each cell's
// numbers are bit-identical to a standalone Compare with the same seed
// and replication count.
func WriteFullReport(ctx context.Context, w io.Writer, opts ReportOptions) error {
	opts = opts.withDefaults()
	start := time.Now()
	// section writes one heading, with any prose under it, and its table.
	section := func(tb *report.Table, format string, args ...any) error {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return err
		}
		return tb.WriteMarkdown(w)
	}

	// ── Declare the comparison grid ──────────────────────────────────
	tables := PaperTables()
	taskCounts := []int{50, 100}
	tcWeights := []float64{0.001, 5, 10, 15, 20, 25, 30}

	var cells []CompareCell
	for _, st := range tables {
		for _, tasks := range taskCounts {
			cells = append(cells, CompareCell{
				Name:     fmt.Sprintf("%s/%d-tasks", st.Heuristic, tasks),
				Scenario: PaperScenario(st.Heuristic, tasks, st.Consistency),
			})
		}
	}
	for _, weight := range tcWeights {
		sc := PaperScenario("mct", 100, workload.Inconsistent)
		sc.TCWeight = weight
		cells = append(cells, CompareCell{
			Name:     fmt.Sprintf("tcweight/%g", weight),
			Scenario: sc,
		})
	}
	faultBase := PaperScenario("mct", 100, workload.Inconsistent)
	faultCells := ChurnCells(faultBase, []float64{0, 2000, 1000}, []float64{0, 0.5})
	cells = append(cells, faultCells...)

	// ── Run every stochastic cell on one pool ────────────────────────
	gopts := GridOptions{Seed: opts.Seed, Reps: opts.Reps, Workers: opts.Workers, OnCell: opts.OnCell}
	cmps, err := CompareGrid(ctx, cells, gopts)
	if err != nil {
		return err
	}
	next := 0
	take := func() *Comparison { c := cmps[next]; next++; return c }

	// ── Table 1 ──────────────────────────────────────────────────────
	ets, err := ETSTable("", grid.ETSTable1)
	if err != nil {
		return err
	}
	if err := section(ets, "# %s\n\nseed %d, %d replications per cell.\n\n## Table 1 — expected trust supplement\n\n",
		opts.Title, opts.Seed, opts.Reps); err != nil {
		return err
	}

	// ── Tables 2-3 ───────────────────────────────────────────────────
	for _, mbps := range []float64{100, 1000} {
		tb, err := TransferTable("", "rcp (s)", "scp (s)", mbps, secover.PaperSizes)
		if err != nil {
			return err
		}
		if err := section(tb, "\n## Secure vs plain transfer, %g Mbps\n\n", mbps); err != nil {
			return err
		}
	}

	// ── Tables 4-9 ───────────────────────────────────────────────────
	for _, st := range tables {
		tb := report.NewTable("", "# of tasks", "Using trust", "Machine utilization",
			"Ave. completion time (sec)", "Improvement", "Makespan improvement")
		for _, tasks := range taskCounts {
			cmp := take()
			msImp := (cmp.Unaware.Makespan.Mean() - cmp.Aware.Makespan.Mean()) /
				cmp.Unaware.Makespan.Mean() * 100
			tb.AddRow(fmt.Sprintf("%d", tasks), "No",
				report.Fraction(cmp.Unaware.Utilization.Mean(), 2),
				report.Seconds(cmp.Unaware.AvgCompletion.Mean()),
				report.Percent(cmp.ImprovementPercent(), 2),
				report.Percent(msImp, 2))
			tb.AddRow("", "Yes",
				report.Fraction(cmp.Aware.Utilization.Mean(), 2),
				report.Seconds(cmp.Aware.AvgCompletion.Mean()), "", "")
		}
		if err := section(tb, "\n## Table %d — %s, %s LoLo\n\n", st.Number, st.Label, st.Consistency); err != nil {
			return err
		}
	}

	// ── Ablations ────────────────────────────────────────────────────
	tcw := report.NewTable("", "TC weight", "improvement")
	for _, weight := range tcWeights {
		tcw.AddRow(fmt.Sprintf("%g", weight), report.Percent(take().ImprovementPercent(), 2))
	}
	if err := section(tcw, "\n## Ablation: TC weight (paper fixes 15)\n\n"); err != nil {
		return err
	}

	ev, err := RunEvolving(EvolvingConfig{Requests: 300}, rng.New(opts.Seed))
	if err != nil {
		return err
	}
	evt := report.NewTable("", "phase", "share on misbehaving RD")
	evt.AddRow("early", report.Fraction(ev.EarlyUnreliableShare, 1))
	evt.AddRow("late", report.Fraction(ev.LateUnreliableShare, 1))
	if err := section(evt, "\n## Ablation: evolving trust (Section 7 loop)\n\n"); err != nil {
		return err
	}

	imp, plain, err := StagingSeries(StagingConfig{}, opts.Seed, opts.Reps)
	if err != nil {
		return err
	}
	stg := report.NewTable("", "metric", "value")
	stg.AddRow("makespan improvement", report.Percent(imp.Mean(), 2))
	stg.AddRow("plain-transfer share", report.Fraction(plain.Mean(), 1))
	if err := section(stg, "\n## Ablation: data staging (rcp when trusted vs blanket scp)\n\n"); err != nil {
		return err
	}

	// ── Fault & adversary injection ──────────────────────────────────
	baseCmp := cmps[len(cells)-len(faultCells)]
	baseMakespan := baseCmp.Aware.Makespan.Mean()
	ft := report.NewTable("", "mtbf/adversary", "makespan (aware)", "degradation",
		"failures", "requeues", "table error", "improvement")
	for i := range faultCells {
		cmp := take()
		m := cmp.Aware.Makespan
		ft.AddRow(faultCells[i].Name,
			fmt.Sprintf("%s ± %.0f", report.Seconds(m.Mean()), m.CI95()),
			report.Percent((m.Mean()-baseMakespan)/baseMakespan*100, 2),
			fmt.Sprintf("%.1f", cmp.Aware.Failures.Mean()),
			fmt.Sprintf("%.1f", cmp.Aware.Requeues.Mean()),
			plusMinus(cmp.Aware.TrustTableError),
			report.Percent(cmp.ImprovementPercent(), 2))
	}
	if err := section(ft, "\n## Fault injection: machine churn × whitewashing adversaries\n\n"+
		"Crash/repair renewal churn (MTTR = MTBF/10) with whitewashing resource\ndomains that advertise the maximum offerable trust level.  Makespan and\ndegradation are mean ± CI95 over the paired replications; degradation is\nrelative to the fault-free trust-aware cell.\n\n"); err != nil {
		return err
	}

	scells := FaultStudyCells([]float64{0.25, 0.5, 0.75})
	sres, err := FaultStudyGrid(ctx, scells, gopts)
	if err != nil {
		return err
	}
	at := CollusionTable("", scells, sres, "liar fraction/variant", "trust-table error",
		"cost degradation", "bad placements", "liar R", "honest R")
	if err := section(at, "\n## Adversary study: collusive recommenders vs the R-weighted defense\n\n"+
		"Lying recommender cliques boost misbehaving resources and badmouth honest\nones.  \"unweighted\" pins every recommender trust factor R to 1 (the paper's\nreputation formula with its defense amputated); \"R-weighted\" audits claims\nagainst direct experience and purges recommenders whose R collapses.  Mean\n± CI95 over %d replications.\n\n", opts.Reps); err != nil {
		return err
	}

	// ── Trust-model zoo ──────────────────────────────────────────────
	zcells := ZooCells(trust.ModelNames(), fault.ZooScenarios())
	zres, err := ZooGrid(ctx, zcells, gopts)
	if err != nil {
		return err
	}
	zt := ZooTable("", zcells, zres, "scenario/model", "trust error", "degradation", "bad placements")
	if err := section(zt, "\n## Trust-model zoo: rival policies head-to-head under adversaries\n\n"+
		"Every registered trust model (`%s`) faces the same four adversary\nenvironments — lying recommender cliques, whitewashing identities,\noscillating resources, and Weibull crash/repair churn — on identical\nrandom streams.  Trust error is the mean |score − ground truth| over the\nlive population after the final round; degradation is the cost of the\nmodel's placements relative to an omniscient oracle.  Mean ± CI95 over\n%d replications.\n\n", strings.Join(trust.ModelNames(), "`, `"), opts.Reps); err != nil {
		return err
	}

	_, err = fmt.Fprintf(w, "\n_Generated in %s._\n", time.Since(start).Round(time.Millisecond))
	return err
}
