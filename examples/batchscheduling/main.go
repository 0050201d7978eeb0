// Batchscheduling walks through the paper's batch-mode TRM algorithms on
// a small hand-inspectable meta-request: the same five tasks are mapped by
// trust-aware Min-min, Max-min, Sufferage and Duplex, first ignoring trust
// and then honouring it, printing the schedules side by side.
//
// Run with: go run ./examples/batchscheduling
package main

import (
	"fmt"
	"log"

	"gridtrust/internal/report"
	"gridtrust/internal/sched"
)

func main() {
	// Five tasks, three machines.  Machine 0 is fast but belongs to a
	// poorly trusted domain (TC 4 for most tasks); machine 2 is slow but
	// fully trusted.
	exec := [][]float64{
		{10, 14, 20},
		{12, 13, 22},
		{30, 34, 38},
		{8, 12, 16},
		{16, 18, 24},
	}
	tc := [][]int{
		{4, 1, 0},
		{4, 1, 0},
		{4, 2, 0},
		{4, 1, 0},
		{4, 2, 0},
	}
	costs, err := sched.NewMatrixCosts(exec, tc)
	if err != nil {
		log.Fatal(err)
	}

	heuristics := []sched.Batch{
		sched.MinMin{}, sched.MaxMin{}, sched.Sufferage{}, sched.Duplex{},
	}
	policies := []sched.Policy{
		sched.MustTrustUnaware(sched.DefaultFlatOverheadPct),
		sched.MustTrustAware(sched.DefaultTCWeight),
	}
	reqs := []int{0, 1, 2, 3, 4}
	avail := []float64{0, 0, 0}

	tb := report.NewTable("Batch-mode TRM schedules (5 tasks × 3 machines)",
		"heuristic", "policy", "schedule (task→machine)", "charged makespan")
	tb.SetAlign(2, report.Left)

	for _, h := range heuristics {
		for _, p := range policies {
			as, err := h.AssignBatchInto(costs, p, reqs, avail, nil)
			if err != nil {
				log.Fatal(err)
			}
			ms, err := sched.ChargedMakespan(costs, p, as, avail)
			if err != nil {
				log.Fatal(err)
			}
			schedule := ""
			for i, a := range as {
				if i > 0 {
					schedule += " "
				}
				schedule += fmt.Sprintf("%d→%d", a.Req, a.Machine)
			}
			tb.AddRow(h.Name(), p.Name, schedule, fmt.Sprintf("%.1f", ms))
		}
	}
	out, err := tb.Render("ascii")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(out)
	fmt.Println(`
Reading the table: the trust-unaware policy maps by raw execution cost and
is then charged the flat 50% security surcharge of Section 4.1, so it
crowds the fast-but-distrusted machine 0.  The trust-aware policy sees
ESC = EEC × (TC × 15)/100 and shifts work toward trusted machines whenever
the security saving beats the speed loss — the paper's central effect.`)
}
