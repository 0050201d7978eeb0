package sim

import (
	"fmt"

	"gridtrust/internal/behavior"
	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

// EvolvingConfig parameterises the evolving-trust experiment: two resource
// domains with identical hardware but different behaviour, a cold trust
// table, and a stream of security-sensitive requests.  This is the paper's
// closing future-work scenario made concrete — "techniques for managing
// and evolving trust ... and mechanisms for determining trust values from
// ongoing transactions" (Section 7) — wired through core.TRMS (Figure 1),
// behavior (outcome scoring) and trust (the Γ engine).
type EvolvingConfig struct {
	// Requests is the number of submitted tasks (default 400).
	Requests int
	// MachinesPerRD is the machine count in each domain (default 2).
	MachinesPerRD int
	// MeanEEC is the centre of the per-machine execution cost draw
	// (default 100); costs are uniform in [0.8, 1.2]·MeanEEC so ties are
	// broken by cost noise, not machine index.
	MeanEEC float64
	// ReliableIncidentProb and UnreliableIncidentProb are the chances a
	// transaction on the respective domain suffers a security incident
	// (defaults 0.01 and 0.5; at 0.5 the misbehaving domain's mean
	// outcome settles near level C, two levels below the reliable
	// domain, which is decisive against ±10% execution-cost noise).
	ReliableIncidentProb   float64
	UnreliableIncidentProb float64
	// RTL is the required trust level of every request (default E, so
	// the trust supplement dominates placement once trust diverges).
	RTL grid.TrustLevel
	// WarmupFraction splits the run into an early and a late phase for
	// reporting (default 0.25: the first quarter is "early").
	WarmupFraction float64
}

// withDefaults fills unset fields.
func (c EvolvingConfig) withDefaults() EvolvingConfig {
	if c.Requests == 0 {
		c.Requests = 400
	}
	if c.MachinesPerRD == 0 {
		c.MachinesPerRD = 2
	}
	if c.MeanEEC == 0 {
		c.MeanEEC = 100
	}
	if c.ReliableIncidentProb == 0 {
		c.ReliableIncidentProb = 0.01
	}
	if c.UnreliableIncidentProb == 0 {
		c.UnreliableIncidentProb = 0.5
	}
	if c.RTL == grid.LevelNone {
		c.RTL = grid.LevelE
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 0.25
	}
	return c
}

// validate rejects unusable configs.
func (c EvolvingConfig) validate() error {
	switch {
	case c.Requests < 4:
		return fmt.Errorf("sim: evolving run needs at least 4 requests, got %d", c.Requests)
	case c.MachinesPerRD < 1:
		return fmt.Errorf("sim: need at least one machine per RD")
	case c.MeanEEC <= 0:
		return fmt.Errorf("sim: non-positive mean EEC %g", c.MeanEEC)
	case c.ReliableIncidentProb < 0 || c.ReliableIncidentProb > 1,
		c.UnreliableIncidentProb < 0 || c.UnreliableIncidentProb > 1:
		return fmt.Errorf("sim: incident probabilities outside [0,1]")
	case !c.RTL.Valid():
		return fmt.Errorf("sim: invalid RTL %v", c.RTL)
	case c.WarmupFraction <= 0 || c.WarmupFraction >= 1:
		return fmt.Errorf("sim: warmup fraction %g outside (0,1)", c.WarmupFraction)
	}
	return nil
}

// The fixed domain ids of the evolving experiment.
const (
	ReliableRD   grid.DomainID = 0
	UnreliableRD grid.DomainID = 1
)

// EvolvingResult reports how placements shifted as trust evolved.
type EvolvingResult struct {
	// EarlyUnreliableShare and LateUnreliableShare are the fractions of
	// placements that landed on the misbehaving domain in the early
	// (warmup) and late phases.
	EarlyUnreliableShare float64
	LateUnreliableShare  float64
	// MeanTCEarly and MeanTCLate are the mean charged trust costs per
	// phase.
	MeanTCEarly, MeanTCLate float64
	// FinalTrustReliable and FinalTrustUnreliable are the table levels
	// (compute activity) at the end of the run.
	FinalTrustReliable   grid.TrustLevel
	FinalTrustUnreliable grid.TrustLevel
	// Placements counts per-domain totals.
	Placements map[grid.DomainID]int
	// Incidents counts security incidents observed per domain.
	Incidents map[grid.DomainID]int
}

// RunEvolving executes the experiment.  Identical sources give identical
// results.
func RunEvolving(cfg EvolvingConfig, src *rng.Source) (*EvolvingResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("sim: nil random source")
	}

	top, err := evolvingTopology(cfg)
	if err != nil {
		return nil, err
	}
	trms, err := core.New(core.Config{
		Topology: top,
		// Optimistic initialisation: both domains start fully trusted
		// (level E, engine score 5).  Greedy trust-aware placement
		// starves untried domains if trust can only be *earned* — the
		// classic cold-start exploration problem — so instead trust is
		// *lost* through observed misbehaviour.  Direct experience
		// dominates (α=0.9) and smoothing 0.5 converges within tens of
		// transactions.
		// UpdateBatch 8 implements Section 3.1's "significant amount of
		// transactional data" rule and keeps the early phase genuinely
		// cold for the phase comparison.
		Trust: trust.Config{
			Alpha: 0.9, Beta: 0.1,
			Smoothing: 0.35, UpdateBatch: 8, InitialScore: 5,
		},
		InitialTrust: grid.LevelE,
	})
	if err != nil {
		return nil, err
	}
	defer trms.Close()

	scorer := behavior.MustDefaultScorer()
	nMachines := len(top.Machines())
	res := &EvolvingResult{
		Placements: make(map[grid.DomainID]int),
		Incidents:  make(map[grid.DomainID]int),
	}
	warmup := int(float64(cfg.Requests) * cfg.WarmupFraction)
	var earlyUnreliable, lateUnreliable int
	var tcEarly, tcLate float64

	toa := grid.MustToA(grid.ActCompute)
	now := 0.0
	for i := 0; i < cfg.Requests; i++ {
		// Requests are spaced one mean service time apart so machines
		// are usually idle and placement is decided by cost (trust),
		// not by backlog equalisation — this isolates the trust effect
		// the experiment is about.
		now += cfg.MeanEEC
		eec := make([]float64, nMachines)
		for m := range eec {
			eec[m] = cfg.MeanEEC * src.Uniform(0.9, 1.1)
		}
		p, err := trms.Submit(core.Task{
			Client: 0, ToA: toa, RTL: cfg.RTL, EEC: eec,
		}, now)
		if err != nil {
			return nil, fmt.Errorf("sim: evolving submit %d: %w", i, err)
		}
		res.Placements[p.RD]++
		if i < warmup {
			if p.RD == UnreliableRD {
				earlyUnreliable++
			}
			tcEarly += float64(p.TC)
		} else {
			if p.RD == UnreliableRD {
				lateUnreliable++
			}
			tcLate += float64(p.TC)
		}

		// Behaviour: the domain's nature decides the telemetry.
		incidentProb := cfg.ReliableIncidentProb
		if p.RD == UnreliableRD {
			incidentProb = cfg.UnreliableIncidentProb
		}
		rec := behavior.TransactionRecord{
			PromisedDuration:  p.ECC,
			ActualDuration:    p.ECC * src.Uniform(0.95, 1.05),
			Completed:         true,
			ResultIntegrityOK: true,
			SecurityIncident:  src.Bool(incidentProb),
		}
		if rec.SecurityIncident {
			res.Incidents[p.RD]++
		}
		outcome, err := scorer.Score(rec)
		if err != nil {
			return nil, err
		}
		// The report is applied before ReportOutcome returns, so
		// placement i+1 sees the trust consequences of placement i, as a
		// slow Grid would.
		if err := trms.ReportOutcome(p, toa, outcome, now); err != nil {
			return nil, err
		}
	}

	res.EarlyUnreliableShare = float64(earlyUnreliable) / float64(warmup)
	res.LateUnreliableShare = float64(lateUnreliable) / float64(cfg.Requests-warmup)
	res.MeanTCEarly = tcEarly / float64(warmup)
	res.MeanTCLate = tcLate / float64(cfg.Requests-warmup)
	res.FinalTrustReliable, _ = trms.Table().Get(0, ReliableRD, grid.ActCompute)
	res.FinalTrustUnreliable, _ = trms.Table().Get(0, UnreliableRD, grid.ActCompute)
	return res, nil
}

// evolvingTopology builds the fixed two-domain Grid of the experiment:
// RD 0 (reliable) and RD 1 (unreliable) with identical machine counts,
// clients in GD 0.
func evolvingTopology(cfg EvolvingConfig) (*grid.Topology, error) {
	mkRD := func(id grid.DomainID, firstMachine int) *grid.ResourceDomain {
		rd := &grid.ResourceDomain{
			ID:    id,
			Owner: fmt.Sprintf("org-%d", id),
			Supported: map[grid.Activity]grid.TrustLevel{
				grid.ActCompute: grid.LevelC,
			},
			RTL: grid.LevelA,
		}
		for i := 0; i < cfg.MachinesPerRD; i++ {
			rd.Machines = append(rd.Machines, &grid.Machine{
				ID: grid.MachineID(firstMachine + i), RD: id,
			})
		}
		return rd
	}
	return grid.NewTopology(
		&grid.GridDomain{
			ID: 0, Name: "reliable", Owner: "org-0",
			RD: mkRD(ReliableRD, 0),
			CD: &grid.ClientDomain{
				ID: 0, Owner: "org-0",
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: 0, CD: 0}},
			},
		},
		&grid.GridDomain{
			ID: 1, Name: "unreliable", Owner: "org-1",
			RD: mkRD(UnreliableRD, cfg.MachinesPerRD),
		},
	)
}
