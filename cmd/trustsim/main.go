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
//	trustsim sweep configs/sweeps/tcweight.json
//	                               # one experiment file: an ablation or a scenario list
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
// binaries, with their flags unchanged, and sweep, which runs experiment
// files.
var subcommands = map[string]func(ctx context.Context, args []string) error{
	"sweep":    cmdSweep,
	"ets":      cmdETS,
	"transfer": cmdTransfer,
	"workload": cmdWorkload,
	"report":   cmdReport,
}

func main() {
	// SIGINT/SIGTERM cancel the experiment grid cleanly: in-flight
	// replications finish, the pool drains, and the run exits 130 instead
	// of dying mid-write.
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
		if ctx.Err() != nil {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// gridFlags are the flags of both commands that run an experiment grid,
// the tables and sweep.
type gridFlags struct {
	seed             uint64
	reps, workers    int
	format           string
	verbose          bool
	trustModel       string
	cpuProf, memProf string
}

// register declares the flags on fs; reps is the command's default
// replication count.
func (g *gridFlags) register(fs *flag.FlagSet, reps int) {
	fs.Uint64Var(&g.seed, "seed", 2002, "master random seed")
	fs.IntVar(&g.reps, "reps", reps, "paired replications per cell")
	fs.IntVar(&g.workers, "workers", 0, "parallel workers (0 = GOMAXPROCS)")
	fs.StringVar(&g.format, "format", "ascii", "output format: ascii, markdown, csv or json")
	fs.BoolVar(&g.verbose, "v", false, "print per-cell progress and timing to stderr")
	fs.StringVar(&g.trustModel, "trust-model", "", "trust policy for the aware runs: "+strings.Join(trust.ModelNames(), ", ")+" (default: the paper engine)")
	fs.StringVar(&g.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&g.memProf, "memprofile", "", "write a heap profile to this file on exit")
}

// parse parses args, checks -trust-model and -format, so a bad value
// costs no cell, and starts the profiles; the caller defers stop.
func (g *gridFlags) parse(fs *flag.FlagSet, args []string) (stop func(), err error) {
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if !trust.KnownModel(g.trustModel) {
		return nil, fmt.Errorf("unknown trust model %q (registered: %s)", g.trustModel, strings.Join(trust.ModelNames(), ", "))
	}
	if err := report.CheckFormat(g.format); err != nil {
		return nil, err
	}
	return prof.Start(g.cpuProf, g.memProf)
}

// progress is the -v hook: one stderr line per finished cell, or nil.
func progress(verbose bool) func(exp.Progress) {
	if !verbose {
		return nil
	}
	return func(p exp.Progress) {
		status := "ok"
		switch {
		case p.Err != nil:
			status = p.Err.Error()
		case p.Cached:
			status = "cached"
		}
		fmt.Fprintf(os.Stderr, "trustsim: [%d/%d] %s: %d reps, %s work, %s\n",
			p.Done, p.Cells, p.Cell, p.Reps, p.Work.Round(time.Millisecond), status)
	}
}

// cmdTables is trustsim without a subcommand: Tables 4-9 or one run's
// timeline.
func cmdTables(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim", flag.ExitOnError)
	var g gridFlags
	g.register(fs, 40)
	var (
		table = fs.String("table", "all", "table to reproduce: 4..9 or \"all\"")
		tasks = fs.String("tasks", "50,100", "comma-separated task counts per table")
		gantt = fs.String("gantt", "", "render one run's execution timeline for a heuristic (mct, minmin or sufferage)")
	)
	stopProf, err := g.parse(fs, args)
	if err != nil {
		return err
	}
	defer stopProf()

	if *gantt != "" {
		return runGantt(*gantt, g.seed)
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
		Seed: g.seed, Reps: g.reps, Workers: g.workers, TaskCounts: taskCounts,
		TrustModel: g.trustModel, OnCell: progress(g.verbose),
	}
	// One engine grid schedules every (table, task count) cell of the
	// requested tables on a shared pool.
	start := time.Now()
	results, err := gridtrust.RunSimTables(ctx, ids, opts)
	if err != nil {
		return err
	}
	for _, res := range results {
		if err := printTable(res.Render(), g.format); err != nil {
			return err
		}
		if g.verbose {
			for _, c := range res.Cells {
				fmt.Printf("  [%d tasks] improvement %.2f%% (paired diff CI95 ±%.2f, significant=%v)\n",
					c.Tasks, c.ImprovementPct, c.CompletionCI95, c.Significant)
			}
		}
		fmt.Println()
	}
	if g.verbose {
		fmt.Printf("(%d tables, %d reps, %s)\n", len(results), g.reps, time.Since(start).Round(time.Millisecond))
	}
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
