// Quickstart: build a two-domain Grid, stand up the trust-aware resource
// management system (TRMS) of the paper's Figure 1, submit a handful of
// tasks, report their outcomes, and watch placements move as the trust
// table evolves.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/trust"
)

func main() {
	// ── 1. Describe the Grid: two grid domains, each with one machine;
	// domain 0 also hosts our client. ────────────────────────────────
	newRD := func(id grid.DomainID) *grid.ResourceDomain {
		return &grid.ResourceDomain{
			ID:    id,
			Owner: fmt.Sprintf("org-%d", id),
			Supported: map[grid.Activity]grid.TrustLevel{
				grid.ActCompute: grid.LevelC,
				grid.ActStorage: grid.LevelC,
			},
			RTL:      grid.LevelA, // this resource trusts anyone
			Machines: []*grid.Machine{{ID: grid.MachineID(id), Name: fmt.Sprintf("m%d", id), RD: id}},
		}
	}
	topology, err := grid.NewTopology(
		&grid.GridDomain{
			ID: 0, Name: "alpha", Owner: "org-0",
			RD: newRD(0),
			CD: &grid.ClientDomain{
				ID: 0, Owner: "org-0",
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: 0, Name: "alice", CD: 0}},
			},
		},
		&grid.GridDomain{ID: 1, Name: "beta", Owner: "org-1", RD: newRD(1)},
	)
	if err != nil {
		log.Fatal(err)
	}

	// ── 2. Start the TRMS: MCT heuristic, evolving trust engine, and the
	// monitoring agent writing back into the shared trust table. ─────
	trms, err := core.New(core.Config{
		Topology: topology,
		Trust:    trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.6},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer trms.Close()

	// ── 3. Submit a security-sensitive task (requires level E).  Both
	// domains currently offer the default level C, so every machine
	// carries trust cost ETS(E,C) = 2 → ESC = 30% of EEC. ─────────────
	task := core.Task{
		Client: 0,
		ToA:    grid.MustToA(grid.ActCompute, grid.ActStorage),
		RTL:    grid.LevelE,
		EEC:    []float64{100, 110}, // machine 0 is a bit faster
	}
	p, err := trms.Submit(task, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=0    task → machine %d (RD %d)  OTL=%v TC=%d  EEC=%.0f ESC=%.0f → finishes at %.0f\n",
		p.Machine.ID, p.RD, p.OTL, p.TC, p.EEC, p.ESC, p.Finish)

	// ── 4. The interaction goes flawlessly: report outcome 6 (best) for
	// several transactions.  Each report has lifted domain 0's trust
	// level in the table by the time ReportOutcome returns. ───────────
	for i := 0; i < 4; i++ {
		if err := trms.ReportOutcome(p, task.ToA, 6, float64(i+1)); err != nil {
			log.Fatal(err)
		}
	}
	tl, _ := trms.Table().Get(0, 0, grid.ActCompute)
	fmt.Printf("t=5    after 4 excellent outcomes, trust table (CD0→RD0, compute) = %v\n", tl)

	// ── 5. Submit again at a later time: the trusted domain now carries
	// no security surcharge, so the scheduler keeps preferring it even
	// for this high-requirement task. ─────────────────────────────────
	p2, err := trms.Submit(task, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("t=1000 task → machine %d  OTL=%v TC=%d  ECC=%.0f (was %.0f before trust built up)\n",
		p2.Machine.ID, p2.OTL, p2.TC, p2.ECC, p.ECC)

	processed, committed, _ := trms.AgentStats()
	fmt.Printf("agents processed %d transactions, committed %d trust revisions\n", processed, committed)
}
