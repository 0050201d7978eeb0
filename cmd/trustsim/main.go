// Command trustsim reproduces the simulation tables of the paper
// (Tables 4-9): paired trust-aware vs trust-unaware runs of the MCT,
// Min-min and Sufferage heuristics on consistent and inconsistent LoLo
// workloads.
//
// Usage:
//
//	trustsim -table all            # every simulation table
//	trustsim -table 4              # one table
//	trustsim -table 8 -reps 100 -seed 7 -format markdown
//	trustsim -tasks 50,100,200     # extra task-count rows
//
// Output is deterministic for a fixed -seed regardless of -workers.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gridtrust"
	"gridtrust/internal/exp"
	"gridtrust/internal/prof"
	"gridtrust/internal/report"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/sim"
	"gridtrust/internal/trace"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

func main() {
	var (
		table   = flag.String("table", "all", "table to reproduce: 4..9 or \"all\"")
		seed    = flag.Uint64("seed", 2002, "master random seed")
		reps    = flag.Int("reps", 40, "paired replications per cell")
		workers = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		format  = flag.String("format", "ascii", "output format: ascii, markdown, csv or json")
		tasks   = flag.String("tasks", "50,100", "comma-separated task counts per table")
		config  = flag.String("config", "", "JSON scenario file to run instead of the paper tables")
		gantt   = flag.String("gantt", "", "render one run's execution timeline for a heuristic (mct, minmin or sufferage)")
		verbose = flag.Bool("v", false, "print per-table timing and significance")
		trustM  = flag.String("trust-model", "", "trust policy for the aware runs: "+strings.Join(trust.ModelNames(), ", ")+" (default: the paper engine)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if !trust.KnownModel(*trustM) {
		fatalf("unknown trust model %q (registered: %s)", *trustM, strings.Join(trust.ModelNames(), ", "))
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatalf("%v", err)
	}
	defer stopProf()

	// SIGINT/SIGTERM cancel the experiment grid cleanly: in-flight
	// replications finish and the pool drains before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gantt != "" {
		if err := runGantt(*gantt, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *config != "" {
		if err := runConfig(ctx, *config, *seed, *reps, *workers, *format, *trustM); err != nil {
			fatalf("%v", err)
		}
		return
	}

	taskCounts, err := parseInts(*tasks)
	if err != nil {
		fatalf("bad -tasks: %v", err)
	}

	ids, err := selectTables(*table)
	if err != nil {
		fatalf("%v", err)
	}

	opts := gridtrust.SimOptions{
		Seed: *seed, Reps: *reps, Workers: *workers, TaskCounts: taskCounts,
		TrustModel: *trustM,
	}
	if *verbose {
		opts.OnCell = func(p exp.Progress) {
			fmt.Fprintf(os.Stderr, "trustsim: [%d/%d] %s: %d reps, %s work\n",
				p.Done, p.Cells, p.Cell, p.Reps, p.Work.Round(time.Millisecond))
		}
	}
	// One engine grid schedules every (table, task count) cell of the
	// requested tables on a shared pool.
	start := time.Now()
	results, err := gridtrust.RunSimTables(ctx, ids, opts)
	if err != nil {
		fatalf("%v", err)
	}
	for _, res := range results {
		out, err := res.Render().Render(*format)
		if err != nil {
			fatalf("render: %v", err)
		}
		fmt.Print(out)
		if *verbose {
			for _, c := range res.Cells {
				fmt.Printf("  [%d tasks] improvement %.2f%% (paired diff CI95 ±%.2f, significant=%v)\n",
					c.Tasks, c.ImprovementPct, c.CompletionCI95, c.Significant)
			}
		}
		fmt.Println()
	}
	if *verbose {
		fmt.Printf("(%d tables, %d reps, %s)\n", len(results), *reps, time.Since(start).Round(time.Millisecond))
	}
}

// runConfig runs every scenario of a JSON config file as one comparison
// grid on a shared pool and prints one result table.
func runConfig(ctx context.Context, path string, seed uint64, reps, workers int, format, trustModel string) error {
	scenarios, err := sim.LoadScenarios(path)
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("Scenarios from %s (%d reps, seed %d)", path, reps, seed),
		"scenario", "util (unaware)", "avg completion (unaware)", "avg completion (aware)", "improvement", "significant")
	cells := make([]sim.CompareCell, len(scenarios))
	for i, sc := range scenarios {
		if trustModel != "" {
			sc.TrustModel = trustModel
		}
		cells[i] = sim.CompareCell{Name: sc.Name, Scenario: sc}
	}
	cmps, err := sim.CompareGrid(ctx, cells, sim.GridOptions{Seed: seed, Reps: reps, Workers: workers})
	if err != nil {
		return err
	}
	for i, cmp := range cmps {
		tb.AddRow(cells[i].Name,
			report.Fraction(cmp.Unaware.Utilization.Mean(), 1),
			report.Seconds(cmp.Unaware.AvgCompletion.Mean()),
			report.Seconds(cmp.Aware.AvgCompletion.Mean()),
			report.Percent(cmp.ImprovementPercent(), 2),
			fmt.Sprintf("%v", cmp.CompletionPairs.Significant()),
		)
	}
	out, err := tb.Render(format)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

// runGantt executes one small paper scenario under both policies and
// prints the execution timelines side by side.
func runGantt(heuristic string, seed uint64) error {
	sc := sim.PaperScenario(heuristic, 20, workload.Inconsistent)
	if err := sc.Validate(); err != nil {
		return err
	}
	w, err := workload.NewWorkload(rng.New(seed), sc.WorkloadSpec())
	if err != nil {
		return err
	}
	var tr trace.Trace // reused across the paired runs; Reset keeps capacity
	for _, policy := range []sched.Policy{
		sched.MustTrustUnaware(sc.FlatOverheadPct),
		sched.MustTrustAware(sc.TCWeight),
	} {
		tr.Reset()
		res, err := sim.RunTraced(sc, w, policy, &tr)
		if err != nil {
			return err
		}
		fmt.Printf("%s  (%s, 20 tasks, seed %d)  avg completion %s, makespan %s\n",
			policy.Name, heuristic, seed,
			report.Seconds(res.AvgCompletionTime), report.Seconds(res.Makespan))
		fmt.Print(tr.Gantt(sc.Machines, 72))
		fmt.Println()
	}
	return nil
}

// selectTables parses the -table flag.
func selectTables(s string) ([]gridtrust.TableID, error) {
	if s == "all" {
		return gridtrust.SimTables(), nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 4 || n > 9 {
		return nil, fmt.Errorf("-table must be 4..9 or \"all\", got %q", s)
	}
	return []gridtrust.TableID{gridtrust.TableID(n)}, nil
}

// parseInts parses a comma-separated list of positive ints.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "trustsim: "+format+"\n", args...)
	os.Exit(1)
}
