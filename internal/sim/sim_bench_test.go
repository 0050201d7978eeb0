package sim

import (
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// End-to-end simulator benchmarks; EXPERIMENTS.md keeps the rows recorded
// when the flat kernel landed.
//
// BenchmarkSimRun drives complete replications (workload fixed, runs
// repeated) at a wide 1024-machine instance, the scale where the fused
// scans and the typed queue pay off.  The scratch
// is reused across iterations exactly as RunPair/Compare reuse it, so
// the numbers reflect the steady state a sweep sees; the trust-cost table
// is rebuilt by every run, as it is there.
//
// At the paper's arrival rate every one of 1024 machines is idle when a
// request arrives, so immediate-mct never finds a busy machine.  The
// loaded cases scale the rate with the machine count as the repository
// benchmark's sim_paper does (0.04 per five machines, 4 CDs and 4 RDs), so
// whether a machine is busy changes from machine to machine.
func BenchmarkSimRun(b *testing.B) {
	cases := []struct {
		name      string
		mode      Mode
		heuristic string
		tasks     int
		loaded    bool
		unaware   bool
	}{
		{"immediate-mct", Immediate, "mct", 2048, false, false},
		{"immediate-mct-loaded/aware", Immediate, "mct", 2048, true, false},
		{"immediate-mct-loaded/unaware", Immediate, "mct", 2048, true, true},
		{"batch-minmin", Batch, "minmin", 512, false, false},
	}
	for _, tc := range cases {
		sc := PaperScenario(tc.heuristic, tc.tasks, workload.Inconsistent)
		sc.Mode = tc.mode
		sc.Heuristic = tc.heuristic
		sc.Machines = 1024
		if tc.loaded {
			sc.ArrivalRate = 0.04 * float64(sc.Machines) / 5
			sc.NumCDs, sc.NumRDs = 4, 4
		}
		w, err := workload.NewWorkload(rng.New(2024), sc.WorkloadSpec())
		if err != nil {
			b.Fatal(err)
		}
		policy, unaware, err := sc.policies()
		if err != nil {
			b.Fatal(err)
		}
		if tc.unaware {
			policy = unaware
		}
		b.Run(tc.name, func(b *testing.B) {
			scr := &runScratch{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := runTraced(sc, w, policy, nil, scr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// flagshipWorkload hand-builds a workload far beyond what the Spec
// generator can materialise: the EEC matrix holds only `profiles`
// distinct task rows (requests cycle through them via TaskIndex) and the
// ToA sets are shared slices, so a 5000-machine x 1M-request instance
// fits comfortably in memory.  The trust costs take next to none of it:
// newWorkloadCosts keeps one cost per (request profile, resource domain),
// |CDs| x |RTLs| x |ordered ToAs| x |RDs| integers, whatever the machine
// count.  Its RD ids start at numCDs, not 0, which the adapter's dense
// RD slots absorb.
func flagshipWorkload(machines, requests, profiles int) (*workload.Workload, error) {
	const numCDs, numRDs = 4, 4
	src := rng.New(42)

	eec, err := workload.NewMatrix(profiles, machines)
	if err != nil {
		return nil, err
	}
	for t := 0; t < profiles; t++ {
		for m := 0; m < machines; m++ {
			eec.Set(t, m, src.Uniform(10, 1000))
		}
	}

	table := grid.NewTrustTable()
	for cd := 0; cd < numCDs; cd++ {
		for rd := 0; rd < numRDs; rd++ {
			for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
				if err := table.Set(grid.DomainID(cd), grid.DomainID(numCDs+rd), a,
					grid.TrustLevel(1+src.Intn(5))); err != nil {
					return nil, err
				}
			}
		}
	}
	machineRD := make([]grid.DomainID, machines)
	resourceRTL := make(map[grid.DomainID]grid.TrustLevel, numRDs)
	for rd := 0; rd < numRDs; rd++ {
		resourceRTL[grid.DomainID(numCDs+rd)] = grid.TrustLevel(src.IntRange(1, 6))
	}
	for m := range machineRD {
		machineRD[m] = grid.DomainID(numCDs + m%numRDs)
	}

	toas := make([]grid.ToA, 8)
	for i := range toas {
		n := src.IntRange(1, 4)
		perm := src.Perm(int(grid.NumBuiltinActivities))
		acts := make([]grid.Activity, n)
		for j := 0; j < n; j++ {
			acts[j] = grid.Activity(perm[j])
		}
		toas[i] = grid.ToA{Activities: acts}
	}

	reqs := make([]workload.Request, requests)
	now := 0.0
	for i := range reqs {
		now += src.Exponential(50)
		reqs[i] = workload.Request{
			ID:        i,
			ArrivalAt: now,
			TaskIndex: i % profiles,
			CD:        grid.DomainID(i % numCDs),
			ToA:       toas[i%len(toas)],
			ClientRTL: grid.TrustLevel(1 + i%6),
		}
	}

	return &workload.Workload{
		Spec:        workload.Spec{Tasks: requests, Machines: machines},
		EEC:         eec,
		Requests:    reqs,
		NumCDs:      numCDs,
		NumRDs:      numRDs,
		MachineRD:   machineRD,
		ResourceRTL: resourceRTL,
		Table:       table,
	}, nil
}

// BenchmarkSimFlagship is the 5000-machine x 1,000,000-task headline run
// (immediate MCT, trust-aware): 5e9 fused machine-scan steps through the
// flat queue in a single replication.  Run with -benchtime 1x; one
// iteration is the whole run.
func BenchmarkSimFlagship(b *testing.B) {
	const machines, requests = 5000, 1_000_000
	w, err := flagshipWorkload(machines, requests, 64)
	if err != nil {
		b.Fatal(err)
	}
	sc := PaperScenario("mct", requests, workload.Inconsistent)
	sc.Name = "flagship-5000x1M"
	sc.Machines = machines
	aware, err := sched.TrustAware(sc.TCWeight)
	if err != nil {
		b.Fatal(err)
	}
	scr := &runScratch{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runTraced(sc, w, aware, nil, scr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Assigned != requests {
			b.Fatalf("assigned %d of %d", res.Assigned, requests)
		}
	}
}
