package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"gridtrust"
	"gridtrust/internal/exp"
	"gridtrust/internal/grid"
	"gridtrust/internal/report"
	"gridtrust/internal/secover"
	"gridtrust/internal/sim"
)

// cmdETS prints the paper's Table 1, the expected trust supplement (ETS)
// for every (required TL, offered TL) pair, under either reading of the F
// row: the literal one (F row = 6 everywhere) or the linear variant (F row
// = 6 − OTL).
func cmdETS(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim ets", flag.ExitOnError)
	rule := fs.String("rule", "table1", "ETS rule: table1 (literal) or linear")
	format := fs.String("format", "ascii", "output format: ascii, markdown, csv or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	title, r := gridtrust.Table1ETS.Title(), grid.ETSTable1
	switch *rule {
	case "table1":
	case "linear":
		title, r = "Table 1 (linear variant). Expected trust supplement values with ETS = max(RTL−OTL, 0).", grid.ETSLinear
	default:
		return fmt.Errorf("-rule must be table1 or linear, got %q", *rule)
	}
	tb, err := sim.ETSTable(title, r)
	if err != nil {
		return err
	}
	return printTable(tb, *format)
}

// cmdTransfer reproduces the security-overhead measurements of the paper's
// Section 5.1: secure (scp) versus plain (rcp) file transfer on 100 and
// 1000 Mbps networks (Tables 2 and 3) and the MiSFIT / SASI x86SFI
// sandboxing overheads.
func cmdTransfer(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim transfer", flag.ExitOnError)
	net := fs.Float64("net", 0, "network speed in Mbps (100 or 1000; 0 = both)")
	sandbox := fs.Bool("sandbox", false, "print only the sandboxing overheads")
	format := fs.String("format", "ascii", "output format: ascii, markdown, csv or json")
	sizes := fs.String("sizes", "", "comma-separated file sizes in MB (default: the paper's 1,10,100,500,1000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sandbox {
		return printTable(gridtrust.SandboxTable(), *format)
	}
	var sizeList []float64 // empty selects the paper's sizes
	if *sizes != "" {
		var err error
		sizeList, err = parseList(*sizes, "non-negative number", func(s string) (float64, bool) {
			v, err := strconv.ParseFloat(s, 64)
			return v, err == nil && v >= 0
		})
		if err != nil {
			return fmt.Errorf("bad -sizes: %v", err)
		}
	}
	speeds := []float64{100, 1000}
	if *net != 0 {
		speeds = []float64{*net}
	}
	for _, mbps := range speeds {
		link, err := secover.LinkFor(mbps)
		if err != nil {
			return err
		}
		tb, err := gridtrust.TransferTable(mbps, sizeList...)
		if err != nil {
			return err
		}
		if err := printTable(tb, *format); err != nil {
			return err
		}
		fmt.Printf("  asymptotic overhead (cipher-bound): %s\n\n",
			report.Percent(link.AsymptoticOverheadPercent(), 1))
	}
	fmt.Println("Sandboxing overheads cited in Section 5.1:")
	return printTable(gridtrust.SandboxTable(), *format)
}

// cmdReport regenerates every experiment of the reproduction, the paper's
// Tables 1-9 plus this repository's ablations, as a single self-contained
// markdown document on stdout.
func cmdReport(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trustsim report", flag.ExitOnError)
	seed := fs.Uint64("seed", 2002, "master random seed")
	reps := fs.Int("reps", 40, "replications per cell")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	verbose := fs.Bool("v", false, "print per-cell progress to stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := sim.ReportOptions{Seed: *seed, Reps: *reps, Workers: *workers}
	if *verbose {
		opts.OnCell = func(p exp.Progress) {
			fmt.Fprintf(os.Stderr, "trustsim: [%d/%d] %s (%s work)\n",
				p.Done, p.Cells, p.Cell, p.Work.Round(time.Millisecond))
		}
	}
	out := bufio.NewWriter(os.Stdout)
	if err := sim.WriteFullReport(ctx, out, opts); err != nil {
		return err
	}
	return out.Flush()
}
