// Command trustsim reproduces the paper's evaluation.  Without a
// subcommand it runs the simulation tables (Tables 4-9): paired trust-aware
// vs trust-unaware runs of the MCT, Min-min and Sufferage heuristics on
// consistent and inconsistent LoLo workloads.
//
// Usage:
//
//	trustsim -table all            # every simulation table
//	trustsim -table 4              # one table
//	trustsim -table 8 -reps 100 -seed 7 -format markdown
//	trustsim -tasks 50,100,200     # extra task-count rows
//
//	trustsim ets [-rule linear]    # Table 1 under either reading of the F row
//	trustsim transfer [-net 1000] [-sandbox] [-sizes 1,64,2048]
//	                               # Tables 2-3 and the Section 5.1 sandboxing overheads
//	trustsim workload gen -seed 7 -tasks 50 -consistency inconsistent -out w.json
//	trustsim workload describe -in w.json
//	trustsim workload run -in w.json -heuristic mct -policy aware -gantt
//	                               # pin, inspect and replay one workload instance
//	trustsim report -reps 100 > report.md
//	                               # every experiment as one markdown document
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

// subcommands are the former etstable, secbench, workloadtool and reportgen
// binaries, with their flags unchanged.
var subcommands = map[string]func(ctx context.Context, args []string) error{
	"ets":      cmdETS,
	"transfer": cmdTransfer,
	"workload": cmdWorkload,
	"report":   cmdReport,
}

func main() {
	// SIGINT/SIGTERM cancel the experiment grid cleanly: in-flight
	// replications finish and the pool drains before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := cmdTables, os.Args[1:]
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			cmd, args = sub, args[1:]
		}
	}
	if err := cmd(ctx, args); err != nil {
		fmt.Fprintf(os.Stderr, "trustsim: %v\n", err)
		os.Exit(1)
	}
}

// cmdTables is trustsim without a subcommand: Tables 4-9, a scenario file,
// or one run's timeline.
func cmdTables(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim", flag.ExitOnError)
	var (
		table   = fs.String("table", "all", "table to reproduce: 4..9 or \"all\"")
		seed    = fs.Uint64("seed", 2002, "master random seed")
		reps    = fs.Int("reps", 40, "paired replications per cell")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		format  = fs.String("format", "ascii", "output format: ascii, markdown, csv or json")
		tasks   = fs.String("tasks", "50,100", "comma-separated task counts per table")
		config  = fs.String("config", "", "JSON scenario file to run instead of the paper tables")
		gantt   = fs.String("gantt", "", "render one run's execution timeline for a heuristic (mct, minmin or sufferage)")
		verbose = fs.Bool("v", false, "print per-table timing and significance")
		trustM  = fs.String("trust-model", "", "trust policy for the aware runs: "+strings.Join(trust.ModelNames(), ", ")+" (default: the paper engine)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !trust.KnownModel(*trustM) {
		return fmt.Errorf("unknown trust model %q (registered: %s)", *trustM, strings.Join(trust.ModelNames(), ", "))
	}
	if err := report.CheckFormat(*format); err != nil {
		return err
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer stopProf()

	if *gantt != "" {
		return runGantt(*gantt, *seed)
	}
	if *config != "" {
		return runConfig(ctx, *config, *seed, *reps, *workers, *format, *trustM)
	}

	taskCounts, err := parseList(*tasks, "positive integer", func(s string) (int, bool) {
		v, err := strconv.Atoi(s)
		return v, err == nil && v > 0
	})
	if err != nil {
		return fmt.Errorf("bad -tasks: %v", err)
	}
	ids, err := selectTables(*table)
	if err != nil {
		return err
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
		return err
	}
	for _, res := range results {
		if err := printTable(res.Render(), *format); err != nil {
			return err
		}
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
	return nil
}

// runConfig runs every scenario of a JSON config file as one comparison
// grid on a shared pool and prints one result table.
func runConfig(ctx context.Context, path string, seed uint64, reps, workers int, format, trustModel string) error {
	scenarios, err := sim.LoadScenarios(path)
	if err != nil {
		return err
	}
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
	return printTable(sim.ComparisonTable(
		fmt.Sprintf("Scenarios from %s (%d reps, seed %d)", path, reps, seed), "scenario", cells, cmps), format)
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

// parseList parses a comma-separated list; conv converts one element and
// reports whether it is acceptable, kind names what was wanted.
func parseList[T any](s, kind string, conv func(string) (T, bool)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, ok := conv(part)
		if !ok {
			return nil, fmt.Errorf("%q is not a %s", part, kind)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// printTable renders the table to stdout in the named format.
func printTable(tb *report.Table, format string) error {
	out, err := tb.Render(format)
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}
