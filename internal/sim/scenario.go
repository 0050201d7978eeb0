package sim

import (
	"fmt"

	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

// Mode selects between on-line and batch scheduling.
type Mode int

// The two scheduling modes of Section 4.1.
const (
	// Immediate maps each request as it arrives (MCT-style).
	Immediate Mode = iota
	// Batch collects requests into meta-requests over a fixed interval
	// and maps each meta-request as a whole (Min-min / Sufferage style).
	Batch
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Immediate:
		return "immediate"
	case Batch:
		return "batch"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultBatchInterval is the meta-request collection window in simulated
// seconds.  With the paper's saturating arrivals it yields meta-requests
// of roughly ten requests on five machines.
const DefaultBatchInterval = 100.0

// Scenario is a complete experiment specification.  The zero value is not
// runnable; use PaperScenario or fill the fields and call Validate.
type Scenario struct {
	// Name labels the scenario in reports.
	Name string
	// Mode and Heuristic select the scheduler.  Heuristic is a name
	// accepted by sched.ImmediateByName (immediate mode) or
	// sched.BatchByName (batch mode).
	Mode      Mode
	Heuristic string

	// Tasks, Machines, Heterogeneity, Consistency, ArrivalRate, NumCDs
	// and NumRDs parameterise the workload (see workload.Spec).
	Tasks         int
	Machines      int
	Heterogeneity workload.Heterogeneity
	Consistency   workload.Consistency
	ArrivalRate   float64
	NumCDs        int
	NumRDs        int

	// ETSRule selects the Table 1 reading for trust costs (see
	// grid.ETSRule); PaperScenario uses grid.ETSLinear.
	ETSRule grid.ETSRule

	// DeadlineSlack, when positive, attaches deadlines to requests (see
	// workload.Spec.DeadlineSlack); the miss rate becomes a reported
	// metric.  Zero (the paper's setting) disables deadlines.
	DeadlineSlack float64

	// BatchInterval is the meta-request window (batch mode only).
	BatchInterval float64

	// TCWeight is the trust-cost weight (paper: 15); FlatOverheadPct is
	// the unaware flat security overhead (paper: 50).
	TCWeight        float64
	FlatOverheadPct float64

	// Fault configures machine churn and adversary injection (see
	// fault.Plan).  The zero plan is inactive and keeps the simulator on
	// its fault-free fast path, byte-identical to pre-fault binaries.
	// RunPair and the comparison grids derive Fault.Seed from the
	// replication stream so both policies of a pair replay the identical
	// fault timeline; standalone Run callers set it themselves.
	Fault fault.Plan

	// TrustModel selects a trust model from the registry to drive the
	// scheduler's trust-cost decision view dynamically: every completion
	// is observed and trust costs are re-derived from the model's evolving
	// scores (see modelview.go).  Empty — or the paper's own model, whose
	// steady state is the workload's static trust table — keeps the
	// pre-zoo table-driven path, byte-identical to earlier binaries.
	// A rival model forces the event-per-task fault kernel: the fast
	// path's fused scans precompute trust costs, which a live model
	// invalidates at every completion.
	TrustModel string
}

// dynamicTrust reports whether the scenario routes trust costs through a
// live model rather than the precomputed table.
func (s Scenario) dynamicTrust() bool {
	return s.TrustModel != "" && s.TrustModel != trust.DefaultModel
}

// PaperScenario returns the Section 5.3 configuration for one of the
// paper's six simulation tables: heuristic ∈ {mct, minmin, sufferage},
// tasks ∈ {50, 100}, consistency ∈ {consistent, inconsistent}.
func PaperScenario(heuristic string, tasks int, c workload.Consistency) Scenario {
	mode := Batch
	if heuristic == "mct" {
		mode = Immediate
	}
	spec := workload.PaperSpec(tasks, c)
	return Scenario{
		Name:            fmt.Sprintf("%s/%s/%d-tasks", heuristic, c, tasks),
		Mode:            mode,
		Heuristic:       heuristic,
		Tasks:           spec.Tasks,
		Machines:        spec.Machines,
		Heterogeneity:   spec.Heterogeneity,
		Consistency:     spec.Consistency,
		ArrivalRate:     spec.ArrivalRate,
		ETSRule:         spec.ETSRule,
		BatchInterval:   DefaultBatchInterval,
		TCWeight:        sched.DefaultTCWeight,
		FlatOverheadPct: sched.DefaultFlatOverheadPct,
	}
}

// Validate checks the scenario and resolves its heuristic, returning a
// descriptive error for anything unrunnable.
func (s Scenario) Validate() error {
	if s.Tasks <= 0 || s.Machines <= 0 {
		return fmt.Errorf("sim: scenario %q needs positive tasks and machines", s.Name)
	}
	if s.ArrivalRate <= 0 {
		return fmt.Errorf("sim: scenario %q needs a positive arrival rate", s.Name)
	}
	if _, _, err := s.policies(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	if s.DeadlineSlack < 0 {
		return fmt.Errorf("sim: scenario %q has negative deadline slack", s.Name)
	}
	switch s.Mode {
	case Immediate:
		if _, err := sched.ImmediateByName(s.Heuristic); err != nil {
			return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
		}
	case Batch:
		if _, err := sched.BatchByName(s.Heuristic); err != nil {
			return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
		}
		if s.BatchInterval <= 0 {
			return fmt.Errorf("sim: scenario %q needs a positive batch interval", s.Name)
		}
	default:
		return fmt.Errorf("sim: scenario %q has unknown mode %d", s.Name, int(s.Mode))
	}
	if err := s.Fault.Validate(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	if !trust.KnownModel(s.TrustModel) {
		return fmt.Errorf("sim: scenario %q: unknown trust model %q (registered: %v)",
			s.Name, s.TrustModel, trust.ModelNames())
	}
	if s.Fault.Churn() && s.Mode == Batch {
		// The metaheuristics only soft-avoid masked machines (see
		// internal/sched/mask.go); churn requires the hard guarantee the
		// deterministic heuristics provide.
		switch s.Heuristic {
		case "ga", "GA", "sanneal", "SAnneal", "gsa", "GSA":
			return fmt.Errorf("sim: scenario %q: heuristic %q does not honor availability masking; churn requires a deterministic batch heuristic",
				s.Name, s.Heuristic)
		}
	}
	return nil
}

// WorkloadSpec derives the workload.Spec for this scenario, for callers
// that need to materialise the same workload the simulator would (e.g.
// for tracing one run).
func (s Scenario) WorkloadSpec() workload.Spec {
	return workload.Spec{
		Tasks:         s.Tasks,
		Machines:      s.Machines,
		NumCDs:        s.NumCDs,
		NumRDs:        s.NumRDs,
		ArrivalRate:   s.ArrivalRate,
		MinToAs:       1,
		MaxToAs:       4,
		Heterogeneity: s.Heterogeneity,
		Consistency:   s.Consistency,
		ETSRule:       s.ETSRule,
		DeadlineSlack: s.DeadlineSlack,
	}
}

// policies builds the trust-aware and trust-unaware cost policies for the
// scenario's parameters.
func (s Scenario) policies() (aware, unaware sched.Policy, err error) {
	aware, err = sched.TrustAware(s.TCWeight)
	if err != nil {
		return
	}
	unaware, err = sched.TrustUnaware(s.FlatOverheadPct)
	return
}
