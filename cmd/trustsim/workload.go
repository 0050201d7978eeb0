package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gridtrust/internal/report"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/sim"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

// cmdWorkload generates, inspects and replays the exact workload instances
// behind the simulation results, using the JSON persistence of
// internal/workload.  A surprising number in a paper table can be pinned
// to a file, shared, and replayed bit-exactly.
func cmdWorkload(_ context.Context, args []string) error {
	verbs := map[string]func(args []string) error{"gen": cmdGen, "describe": cmdDescribe, "run": cmdRun}
	if len(args) == 0 || verbs[args[0]] == nil {
		fmt.Fprintln(os.Stderr, "usage: trustsim workload {gen|describe|run} [flags]")
		os.Exit(2)
	}
	return verbs[args[0]](args[1:])
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("trustsim workload gen", flag.ExitOnError)
	seed := fs.Uint64("seed", 1, "random seed")
	tasks := fs.Int("tasks", 50, "number of requests")
	consistency := fs.String("consistency", "inconsistent", "inconsistent, consistent or semi-consistent")
	slack := fs.Float64("deadline-slack", 0, "deadline slack (0 = no deadlines)")
	out := fs.String("out", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cons, err := sim.ParseConsistency(*consistency)
	if err != nil {
		return err
	}
	spec := workload.PaperSpec(*tasks, cons)
	spec.DeadlineSlack = *slack
	w, err := workload.NewWorkload(rng.New(*seed), spec)
	if err != nil {
		return err
	}
	if *out == "" {
		return w.Save(os.Stdout)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := w.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d-task workload (seed %d, %s) to %s\n", *tasks, *seed, cons, *out)
	return nil
}

func loadFrom(path string) (*workload.Workload, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -in")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.Load(f)
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("trustsim workload describe", flag.ExitOnError)
	in := fs.String("in", "", "workload file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := loadFrom(*in)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %d tasks x %d machines, %s %s\n",
		w.Spec.Tasks, w.Spec.Machines, w.Spec.Consistency, w.Spec.Heterogeneity)
	fmt.Printf("domains:  %d CDs, %d RDs (ETS rule %s)\n", w.NumCDs, w.NumRDs, w.Spec.ETSRule)
	fmt.Printf("mean EEC: %s s;  arrival span: %s s\n",
		report.Comma(w.EEC.MeanCost(), 1),
		report.Comma(w.Requests[len(w.Requests)-1].ArrivalAt, 1))

	// Trust-cost histogram over all (request, machine) pairs.
	dist, err := w.TCStats()
	if err != nil {
		return err
	}
	fmt.Printf("trust costs (all request-machine pairs, mean %.2f):\n", dist.Mean)
	values := make([]float64, len(dist.Counts))
	for tc, c := range dist.Counts {
		values[tc] = float64(c)
		fmt.Printf("  TC=%d  %5d\n", tc, c)
	}
	if spark, err := report.Sparkline(values); err == nil {
		fmt.Printf("  dist  %s\n", spark)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("trustsim workload run", flag.ExitOnError)
	in := fs.String("in", "", "workload file")
	heuristic := fs.String("heuristic", "mct", "mct, minmin or sufferage")
	policy := fs.String("policy", "aware", "aware, unaware or blind")
	gantt := fs.Bool("gantt", false, "print the execution timeline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := loadFrom(*in)
	if err != nil {
		return err
	}
	sc := sim.PaperScenario(*heuristic, w.Spec.Tasks, w.Spec.Consistency)
	sc.Machines = w.Spec.Machines
	sc.ArrivalRate = w.Spec.ArrivalRate
	sc.ETSRule = w.Spec.ETSRule
	sc.DeadlineSlack = w.Spec.DeadlineSlack
	sc.NumCDs, sc.NumRDs = w.Spec.NumCDs, w.Spec.NumRDs

	var p sched.Policy
	switch *policy {
	case "aware":
		p = sched.MustTrustAware(sc.TCWeight)
	case "unaware":
		p = sched.MustTrustUnaware(sc.FlatOverheadPct)
	case "blind":
		p = sched.MustTrustBlind(sc.TCWeight)
	default:
		return fmt.Errorf("unknown policy %q", *policy)
	}

	var tr trace.Trace
	res, err := sim.RunTraced(sc, w, p, &tr)
	if err != nil {
		return err
	}
	fmt.Printf("%s / %s on %s:\n", *heuristic, p.Name, *in)
	fmt.Printf("  avg completion: %s s  (p50 %s, p95 %s)\n",
		report.Seconds(res.AvgCompletionTime),
		report.Seconds(res.P50Completion), report.Seconds(res.P95Completion))
	fmt.Printf("  makespan:       %s s\n", report.Seconds(res.Makespan))
	fmt.Printf("  utilization:    %s\n", report.Fraction(res.MeanUtilization, 2))
	fmt.Printf("  mean trust cost: %.2f\n", res.MeanTrustCost)
	if res.DeadlineMissRate > 0 {
		fmt.Printf("  deadline misses: %d (%s)\n",
			res.DeadlineMisses, report.Fraction(res.DeadlineMissRate, 1))
	}
	if *gantt {
		fmt.Println()
		fmt.Print(tr.Gantt(sc.Machines, 72))
	}
	return nil
}
