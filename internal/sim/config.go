package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"gridtrust/internal/fault"
	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// ScenarioConfig is the JSON-friendly form of a Scenario, the cell of the
// scenario files `trustsim sweep` runs, so experiment definitions can live
// in version-controlled files.  Enumerations are strings; absent fields
// take the paper defaults.  The two weights are pointers because 0 is a
// weight an experiment asks for, not an absent field.
type ScenarioConfig struct {
	Name            string   `json:"name,omitempty"`
	Mode            string   `json:"mode"`      // "immediate" | "batch"
	Heuristic       string   `json:"heuristic"` // e.g. "mct", "minmin"
	Tasks           int      `json:"tasks"`
	Machines        int      `json:"machines,omitempty"`          // default 5
	Heterogeneity   string   `json:"heterogeneity,omitempty"`     // LoLo|LoHi|HiLo|HiHi, default LoLo
	Consistency     string   `json:"consistency,omitempty"`       // inconsistent|consistent|semi-consistent
	ArrivalRate     float64  `json:"arrival_rate,omitempty"`      // default 0.04
	NumCDs          int      `json:"num_cds,omitempty"`           // 0 = draw [1,4]
	NumRDs          int      `json:"num_rds,omitempty"`           // 0 = draw [1,4]
	ETSRule         string   `json:"ets_rule,omitempty"`          // table1|linear, default linear
	BatchInterval   float64  `json:"batch_interval,omitempty"`    // default 100
	TCWeight        *float64 `json:"tc_weight,omitempty"`         // default 15
	DeadlineSlack   float64  `json:"deadline_slack,omitempty"`    // 0 = no deadlines
	FlatOverheadPct *float64 `json:"flat_overhead_pct,omitempty"` // default 50

	// Fault configures churn and adversary injection; absent means none.
	Fault *FaultConfig `json:"fault,omitempty"`
}

// FaultConfig is the JSON-friendly form of fault.Plan.
type FaultConfig struct {
	MTBF              float64 `json:"mtbf,omitempty"`
	MTTR              float64 `json:"mttr,omitempty"`
	UpShape           float64 `json:"up_shape,omitempty"`
	DownShape         float64 `json:"down_shape,omitempty"`
	AdversaryFraction float64 `json:"adversary_fraction,omitempty"`
	MaxRequeues       int     `json:"max_requeues,omitempty"`
	Seed              uint64  `json:"seed,omitempty"`
}

// plan converts the config to a fault.Plan.
func (f *FaultConfig) plan() fault.Plan {
	if f == nil {
		return fault.Plan{}
	}
	return fault.Plan{
		MTBF:              f.MTBF,
		MTTR:              f.MTTR,
		UpShape:           f.UpShape,
		DownShape:         f.DownShape,
		AdversaryFraction: f.AdversaryFraction,
		MaxRequeues:       f.MaxRequeues,
		Seed:              f.Seed,
	}
}

// ParseConsistency maps the JSON and command-line name onto the enum; the
// empty name selects the paper's inconsistent class.
func ParseConsistency(s string) (workload.Consistency, error) {
	switch strings.ToLower(s) {
	case "", "inconsistent":
		return workload.Inconsistent, nil
	case "consistent":
		return workload.Consistent, nil
	case "semi-consistent", "semiconsistent":
		return workload.SemiConsistent, nil
	default:
		return 0, fmt.Errorf("sim: unknown consistency %q", s)
	}
}

// parseHeterogeneity maps the JSON name onto a preset.
func parseHeterogeneity(s string) (workload.Heterogeneity, error) {
	switch s {
	case "", "LoLo", "lolo":
		return workload.LoLo, nil
	case "LoHi", "lohi":
		return workload.LoHi, nil
	case "HiLo", "hilo":
		return workload.HiLo, nil
	case "HiHi", "hihi":
		return workload.HiHi, nil
	default:
		return workload.Heterogeneity{}, fmt.Errorf("sim: unknown heterogeneity %q", s)
	}
}

// parseETSRule maps the JSON name onto the enum.
func parseETSRule(s string) (grid.ETSRule, error) {
	switch strings.ToLower(s) {
	case "", "linear":
		return grid.ETSLinear, nil
	case "table1":
		return grid.ETSTable1, nil
	default:
		return 0, fmt.Errorf("sim: unknown ETS rule %q", s)
	}
}

// Scenario converts the config to a validated Scenario.
func (c ScenarioConfig) Scenario() (Scenario, error) {
	var mode Mode
	switch strings.ToLower(c.Mode) {
	case "immediate":
		mode = Immediate
	case "batch":
		mode = Batch
	case "":
		// Infer from the heuristic name.
		switch c.Heuristic {
		case "mct", "met", "olb", "kpb", "sa":
			mode = Immediate
		default:
			mode = Batch
		}
	default:
		return Scenario{}, fmt.Errorf("sim: unknown mode %q", c.Mode)
	}
	cons, err := ParseConsistency(c.Consistency)
	if err != nil {
		return Scenario{}, err
	}
	het, err := parseHeterogeneity(c.Heterogeneity)
	if err != nil {
		return Scenario{}, err
	}
	rule, err := parseETSRule(c.ETSRule)
	if err != nil {
		return Scenario{}, err
	}

	sc := Scenario{
		Name:            c.Name,
		Mode:            mode,
		Heuristic:       c.Heuristic,
		Tasks:           c.Tasks,
		Machines:        c.Machines,
		Heterogeneity:   het,
		Consistency:     cons,
		ArrivalRate:     c.ArrivalRate,
		NumCDs:          c.NumCDs,
		NumRDs:          c.NumRDs,
		ETSRule:         rule,
		BatchInterval:   c.BatchInterval,
		TCWeight:        sched.DefaultTCWeight,
		FlatOverheadPct: sched.DefaultFlatOverheadPct,
		DeadlineSlack:   c.DeadlineSlack,
		Fault:           c.Fault.plan(),
	}
	if c.TCWeight != nil {
		sc.TCWeight = *c.TCWeight
	}
	if c.FlatOverheadPct != nil {
		sc.FlatOverheadPct = *c.FlatOverheadPct
	}
	// Paper defaults for absent numerics.
	if sc.Machines == 0 {
		sc.Machines = 5
	}
	if sc.ArrivalRate == 0 {
		sc.ArrivalRate = 0.04
	}
	if sc.BatchInterval == 0 {
		sc.BatchInterval = DefaultBatchInterval
	}
	if sc.Name == "" {
		sc.Name = fmt.Sprintf("%s/%s/%d-tasks", sc.Heuristic, sc.Consistency, sc.Tasks)
	}
	if err := sc.Validate(); err != nil {
		return Scenario{}, err
	}
	return sc, nil
}

// Config converts a Scenario back to its JSON form.
func (s Scenario) Config() ScenarioConfig {
	var fc *FaultConfig
	if s.Fault != (fault.Plan{}) {
		fc = &FaultConfig{
			MTBF:              s.Fault.MTBF,
			MTTR:              s.Fault.MTTR,
			UpShape:           s.Fault.UpShape,
			DownShape:         s.Fault.DownShape,
			AdversaryFraction: s.Fault.AdversaryFraction,
			MaxRequeues:       s.Fault.MaxRequeues,
			Seed:              s.Fault.Seed,
		}
	}
	return ScenarioConfig{
		Name:            s.Name,
		Mode:            s.Mode.String(),
		Heuristic:       s.Heuristic,
		Tasks:           s.Tasks,
		Machines:        s.Machines,
		Heterogeneity:   s.Heterogeneity.String(),
		Consistency:     s.Consistency.String(),
		ArrivalRate:     s.ArrivalRate,
		NumCDs:          s.NumCDs,
		NumRDs:          s.NumRDs,
		ETSRule:         s.ETSRule.String(),
		BatchInterval:   s.BatchInterval,
		TCWeight:        &s.TCWeight,
		FlatOverheadPct: &s.FlatOverheadPct,
		DeadlineSlack:   s.DeadlineSlack,
		Fault:           fc,
	}
}

// ParseScenarios decodes a scenario file: either one ScenarioConfig object
// or a non-empty array of them, returning validated scenarios.  A key
// ScenarioConfig does not declare is an error, and so is anything after
// the top-level value.
func ParseScenarios(data []byte) ([]Scenario, error) {
	// A misspelled key is an error, not a silently kept paper default.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfgs []ScenarioConfig
	var err error
	if bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		err = dec.Decode(&cfgs)
	} else {
		cfgs = make([]ScenarioConfig, 1)
		err = dec.Decode(&cfgs[0])
	}
	if err == nil && len(bytes.TrimSpace(data[dec.InputOffset():])) > 0 {
		err = errors.New("data after the top-level value")
	}
	if err != nil {
		return nil, fmt.Errorf("sim: parse config: %w", err)
	}
	out := make([]Scenario, 0, len(cfgs))
	for i, c := range cfgs {
		sc, err := c.Scenario()
		if err != nil {
			return nil, fmt.Errorf("sim: config entry %d: %w", i, err)
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, errors.New("sim: config holds no scenarios")
	}
	return out, nil
}
