package sim

import (
	"context"
	"fmt"
	"math"

	"gridtrust/internal/rng"
	"gridtrust/internal/secover"
	"gridtrust/internal/stats"
	"gridtrust/internal/workload"
)

// StagingConfig parameterises the data-staging experiment, which connects
// the paper's two evaluation halves: the scp/rcp overhead measurements of
// Tables 2-3 and the trust-aware scheduling of Tables 4-9.  Every request
// carries input data that must be staged to the chosen machine before
// execution.  A trust-unaware RMS applies blanket security — every
// transfer uses scp — while the trust-aware RMS uses plain rcp whenever
// the trust relationship already covers the request (TC = 0), "eliminating
// redundant application of secure operations" (Section 7).
type StagingConfig struct {
	// Requests and Machines size the instance (defaults 100 and 5).
	Requests int
	Machines int
	// LinkMbps selects the calibrated link of Tables 2-3 (100 or 1000;
	// default 100).
	LinkMbps float64
	// MaxInputMB bounds the per-request input size, drawn uniformly
	// from [1, MaxInputMB] (default 500).
	MaxInputMB float64
	// TCWeight is the ESC weight (default 15); it must be finite and
	// non-negative.
	TCWeight float64
}

// withDefaults fills unset fields.
func (c StagingConfig) withDefaults() StagingConfig {
	if c.Requests == 0 {
		c.Requests = 100
	}
	if c.Machines == 0 {
		c.Machines = 5
	}
	if c.LinkMbps == 0 {
		c.LinkMbps = 100
	}
	if c.MaxInputMB == 0 {
		c.MaxInputMB = 500
	}
	if c.TCWeight == 0 {
		c.TCWeight = 15
	}
	return c
}

// validate rejects unusable configs.
func (c StagingConfig) validate() error {
	switch {
	case c.Requests < 1:
		return fmt.Errorf("sim: staging needs at least one request")
	case c.Machines < 1:
		return fmt.Errorf("sim: staging needs at least one machine")
	case c.MaxInputMB < 1:
		return fmt.Errorf("sim: MaxInputMB %g < 1", c.MaxInputMB)
	case c.TCWeight < 0 || math.IsNaN(c.TCWeight) || math.IsInf(c.TCWeight, 0):
		return fmt.Errorf("sim: TC weight %g is negative or not finite", c.TCWeight)
	}
	if _, err := secover.LinkFor(c.LinkMbps); err != nil {
		return err
	}
	return nil
}

// StagingResult reports the paired comparison.
type StagingResult struct {
	// UnawareMakespan and AwareMakespan are the charged makespans
	// (compute + security + staging) of the two schedulers on the same
	// instance.
	UnawareMakespan, AwareMakespan float64
	// ImprovementPct is (unaware − aware)/unaware × 100.
	ImprovementPct float64
	// UnawareStaging and AwareStaging are total staging seconds.
	UnawareStaging, AwareStaging float64
	// PlainTransfers counts aware transfers that ran over rcp because
	// trust already covered them (TC = 0).
	PlainTransfers int
	// Requests echoes the instance size.
	Requests int
}

// RunStaging draws one paper-style workload, attaches input sizes, and
// schedules it twice with greedy MCT:
//
//	trust-unaware: ranks by raw EEC; charged EEC×1.5 plus scp staging for
//	               every request (blanket security).
//	trust-aware:   ranks and is charged EEC×(1+w·TC/100) plus staging at
//	               rcp when TC = 0 and scp otherwise.
func RunStaging(cfg StagingConfig, src *rng.Source) (*StagingResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("sim: nil random source")
	}
	link, err := secover.LinkFor(cfg.LinkMbps)
	if err != nil {
		return nil, err
	}

	spec := workload.PaperSpec(cfg.Requests, workload.Inconsistent)
	spec.Machines = cfg.Machines
	w, err := workload.NewWorkload(src, spec)
	if err != nil {
		return nil, err
	}
	costs, err := newWorkloadCosts(w)
	if err != nil {
		return nil, err
	}
	inputMB := make([]float64, cfg.Requests)
	for i := range inputMB {
		inputMB[i] = src.Uniform(1, cfg.MaxInputMB)
	}
	// Staging times depend only on the request's input size, not the
	// machine, so compute each request's scp and rcp time once instead of
	// inside the O(requests x machines) ranking loop.  Time is a pure
	// function of the size, so the precomputed values are the ones the
	// loop would have computed.
	scpTime := make([]float64, cfg.Requests)
	rcpTime := make([]float64, cfg.Requests)
	for r, mb := range inputMB {
		if scpTime[r], err = link.Scp.Time(mb); err != nil {
			return nil, err
		}
		if rcpTime[r], err = link.Rcp.Time(mb); err != nil {
			return nil, err
		}
	}

	// chargedCost returns the full cost of running request r on machine
	// m under one of the two regimes.
	chargedCost := func(r, m int, aware bool) (total, staging float64, plain bool, err error) {
		eec := costs.EEC(r, m)
		tc, err := costs.TrustCost(r, m)
		if err != nil {
			return 0, 0, false, err
		}
		if aware {
			var t float64
			if tc == 0 {
				t = rcpTime[r]
				plain = true
			} else {
				t = scpTime[r]
			}
			return eec*(1+cfg.TCWeight*float64(tc)/100) + t, t, plain, nil
		}
		return eec*1.5 + scpTime[r], scpTime[r], false, nil
	}

	// schedule runs greedy MCT under one regime.  The aware scheduler
	// ranks by its true charged cost; the unaware one ranks by raw EEC
	// (it is oblivious to both security and secure-staging costs).
	schedule := func(aware bool) (makespan, staging float64, plainCount int, err error) {
		avail := make([]float64, cfg.Machines)
		for r := 0; r < cfg.Requests; r++ {
			best := -1
			bestRank := math.Inf(1)
			for m := 0; m < cfg.Machines; m++ {
				var rank float64
				if aware {
					total, _, _, cerr := chargedCost(r, m, true)
					if cerr != nil {
						return 0, 0, 0, cerr
					}
					rank = avail[m] + total
				} else {
					rank = avail[m] + costs.EEC(r, m)
				}
				if rank < bestRank {
					bestRank = rank
					best = m
				}
			}
			total, st, plain, cerr := chargedCost(r, best, aware)
			if cerr != nil {
				return 0, 0, 0, cerr
			}
			avail[best] += total
			staging += st
			if plain {
				plainCount++
			}
		}
		for _, a := range avail {
			if a > makespan {
				makespan = a
			}
		}
		return makespan, staging, plainCount, nil
	}

	unMS, unStage, _, err := schedule(false)
	if err != nil {
		return nil, err
	}
	awMS, awStage, plain, err := schedule(true)
	if err != nil {
		return nil, err
	}
	return &StagingResult{
		UnawareMakespan: unMS,
		AwareMakespan:   awMS,
		ImprovementPct:  (unMS - awMS) / unMS * 100,
		UnawareStaging:  unStage,
		AwareStaging:    awStage,
		PlainTransfers:  plain,
		Requests:        cfg.Requests,
	}, nil
}

// StagingSeries runs the experiment across replications and aggregates.
// It is a single-cell StagingGrid; results are identical to the serial
// fold over rng.Streams(seed, reps).
func StagingSeries(cfg StagingConfig, seed uint64, reps int) (improvement, plainShare stats.Running, err error) {
	res, err := StagingGrid(context.Background(),
		[]StagingCell{{Name: "staging", Config: cfg}},
		GridOptions{Seed: seed, Reps: reps})
	if err != nil {
		return improvement, plainShare, err
	}
	return res[0].Improvement, res[0].PlainShare, nil
}
