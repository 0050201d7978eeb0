package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"gridtrust/internal/grid"
)

// serialisedWorkload is the JSON form of a Workload.  Instances can be
// saved and reloaded bit-exactly, so a surprising simulation result can be
// shared and replayed without shipping the generator seed and code
// version together.
type serialisedWorkload struct {
	Version  int                 `json:"version"`
	Spec     serialisedSpec      `json:"spec"`
	EEC      [][]float64         `json:"eec"`
	Requests []serialisedRequest `json:"requests"`

	NumCDs      int            `json:"num_cds"`
	NumRDs      int            `json:"num_rds"`
	MachineRD   []int          `json:"machine_rd"`
	ResourceRTL map[string]int `json:"resource_rtl"`
	Table       []tableEntry   `json:"table"`
}

type serialisedSpec struct {
	Tasks         int     `json:"tasks"`
	Machines      int     `json:"machines"`
	NumCDs        int     `json:"num_cds"`
	NumRDs        int     `json:"num_rds"`
	ArrivalRate   float64 `json:"arrival_rate"`
	MinToAs       int     `json:"min_toas"`
	MaxToAs       int     `json:"max_toas"`
	TaskRange     float64 `json:"task_range"`
	MachineRange  float64 `json:"machine_range"`
	Consistency   int     `json:"consistency"`
	ETSRule       int     `json:"ets_rule"`
	DeadlineSlack float64 `json:"deadline_slack"`
}

type serialisedRequest struct {
	ID         int     `json:"id"`
	ArrivalAt  float64 `json:"arrival_at"`
	TaskIndex  int     `json:"task_index"`
	CD         int     `json:"cd"`
	Activities []int   `json:"activities"`
	ClientRTL  int     `json:"client_rtl"`
	Deadline   float64 `json:"deadline,omitempty"`
}

type tableEntry struct {
	CD       int `json:"cd"`
	RD       int `json:"rd"`
	Activity int `json:"activity"`
	Level    int `json:"level"`
}

const workloadFormatVersion = 1

// Save writes the workload as JSON.
func (w *Workload) Save(out io.Writer) error {
	sw := serialisedWorkload{
		Version: workloadFormatVersion,
		Spec: serialisedSpec{
			Tasks: w.Spec.Tasks, Machines: w.Spec.Machines,
			NumCDs: w.Spec.NumCDs, NumRDs: w.Spec.NumRDs,
			ArrivalRate: w.Spec.ArrivalRate,
			MinToAs:     w.Spec.MinToAs, MaxToAs: w.Spec.MaxToAs,
			TaskRange:     w.Spec.Heterogeneity.TaskRange,
			MachineRange:  w.Spec.Heterogeneity.MachineRange,
			Consistency:   int(w.Spec.Consistency),
			ETSRule:       int(w.Spec.ETSRule),
			DeadlineSlack: w.Spec.DeadlineSlack,
		},
		NumCDs: w.NumCDs, NumRDs: w.NumRDs,
		ResourceRTL: make(map[string]int, len(w.ResourceRTL)),
	}
	sw.EEC = make([][]float64, w.EEC.Tasks)
	for t := 0; t < w.EEC.Tasks; t++ {
		sw.EEC[t] = w.EEC.Row(t)
	}
	for _, r := range w.Requests {
		acts := make([]int, len(r.ToA.Activities))
		for i, a := range r.ToA.Activities {
			acts[i] = int(a)
		}
		sw.Requests = append(sw.Requests, serialisedRequest{
			ID: r.ID, ArrivalAt: r.ArrivalAt, TaskIndex: r.TaskIndex,
			CD: int(r.CD), Activities: acts, ClientRTL: int(r.ClientRTL),
			Deadline: r.Deadline,
		})
	}
	sw.MachineRD = make([]int, len(w.MachineRD))
	for m, rd := range w.MachineRD {
		sw.MachineRD[m] = int(rd)
	}
	for rd, rtl := range w.ResourceRTL {
		sw.ResourceRTL[fmt.Sprintf("%d", rd)] = int(rtl)
	}
	table := w.Table.Replica()
	for cd := 0; cd < w.NumCDs; cd++ {
		for rd := 0; rd < w.NumRDs; rd++ {
			for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
				if tl, ok := table.Get(grid.DomainID(cd), grid.DomainID(rd), a); ok {
					sw.Table = append(sw.Table, tableEntry{
						CD: cd, RD: rd, Activity: int(a), Level: int(tl),
					})
				}
			}
		}
	}
	data, err := json.MarshalIndent(&sw, "", " ")
	if err != nil {
		return fmt.Errorf("workload: marshal: %w", err)
	}
	data = append(data, '\n')
	if _, err := out.Write(data); err != nil {
		return fmt.Errorf("workload: write: %w", err)
	}
	return nil
}

// Load reads a workload saved with Save, validating structure and ranges.
func Load(in io.Reader) (*Workload, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("workload: read: %w", err)
	}
	var sw serialisedWorkload
	if err := json.Unmarshal(data, &sw); err != nil {
		return nil, fmt.Errorf("workload: parse: %w", err)
	}
	if sw.Version != workloadFormatVersion {
		return nil, fmt.Errorf("workload: unsupported format version %d", sw.Version)
	}
	spec := Spec{
		Tasks: sw.Spec.Tasks, Machines: sw.Spec.Machines,
		NumCDs: sw.Spec.NumCDs, NumRDs: sw.Spec.NumRDs,
		ArrivalRate: sw.Spec.ArrivalRate,
		MinToAs:     sw.Spec.MinToAs, MaxToAs: sw.Spec.MaxToAs,
		Heterogeneity: Heterogeneity{
			TaskRange: sw.Spec.TaskRange, MachineRange: sw.Spec.MachineRange,
		},
		Consistency:   Consistency(sw.Spec.Consistency),
		ETSRule:       grid.ETSRule(sw.Spec.ETSRule),
		DeadlineSlack: sw.Spec.DeadlineSlack,
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if len(sw.EEC) != spec.Tasks {
		return nil, fmt.Errorf("workload: EEC has %d rows for %d tasks", len(sw.EEC), spec.Tasks)
	}
	m, err := NewMatrix(spec.Tasks, spec.Machines)
	if err != nil {
		return nil, err
	}
	for t, row := range sw.EEC {
		if len(row) != spec.Machines {
			return nil, fmt.Errorf("workload: EEC row %d has %d entries", t, len(row))
		}
		for j, v := range row {
			if v < 0 {
				return nil, fmt.Errorf("workload: negative EEC at (%d,%d)", t, j)
			}
			m.Set(t, j, v)
		}
	}
	if len(sw.Requests) != spec.Tasks {
		return nil, fmt.Errorf("workload: %d requests for %d tasks", len(sw.Requests), spec.Tasks)
	}
	if len(sw.MachineRD) != spec.Machines {
		return nil, fmt.Errorf("workload: machine_rd has %d entries", len(sw.MachineRD))
	}

	w := &Workload{
		Spec: spec, EEC: m,
		NumCDs: sw.NumCDs, NumRDs: sw.NumRDs,
		MachineRD:   make([]grid.DomainID, spec.Machines),
		ResourceRTL: make(map[grid.DomainID]grid.TrustLevel, len(sw.ResourceRTL)),
		Table:       grid.NewTrustTable(),
	}
	if w.NumCDs < 1 || w.NumRDs < 1 {
		return nil, fmt.Errorf("workload: non-positive domain counts %d/%d", w.NumCDs, w.NumRDs)
	}
	for i, rd := range sw.MachineRD {
		if rd < 0 || rd >= sw.NumRDs {
			return nil, fmt.Errorf("workload: machine %d references RD %d", i, rd)
		}
		w.MachineRD[i] = grid.DomainID(rd)
	}
	for key, rtl := range sw.ResourceRTL {
		var rd int
		if _, err := fmt.Sscanf(key, "%d", &rd); err != nil {
			return nil, fmt.Errorf("workload: bad resource RTL key %q", key)
		}
		lvl := grid.TrustLevel(rtl)
		if !lvl.Valid() {
			return nil, fmt.Errorf("workload: RD %d RTL %d invalid", rd, rtl)
		}
		w.ResourceRTL[grid.DomainID(rd)] = lvl
	}
	entries := make([]grid.TableEntry, len(sw.Table))
	for i, e := range sw.Table {
		entries[i] = grid.TableEntry{CD: grid.DomainID(e.CD), RD: grid.DomainID(e.RD),
			Activity: grid.Activity(e.Activity), Level: grid.TrustLevel(e.Level)}
	}
	if err := w.Table.Restore(entries, uint64(len(entries))); err != nil {
		return nil, err
	}
	w.Requests = make([]Request, spec.Tasks)
	for i, sr := range sw.Requests {
		// The simulator indexes Requests by id.
		if sr.ID != i {
			return nil, fmt.Errorf("workload: request %d has id %d, want its position", i, sr.ID)
		}
		acts := make([]grid.Activity, len(sr.Activities))
		for k, a := range sr.Activities {
			acts[k] = grid.Activity(a)
		}
		toa, err := grid.NewToA(acts...)
		if err != nil {
			return nil, fmt.Errorf("workload: request %d: %w", i, err)
		}
		rtl := grid.TrustLevel(sr.ClientRTL)
		if !rtl.Valid() {
			return nil, fmt.Errorf("workload: request %d client RTL %d invalid", i, sr.ClientRTL)
		}
		if sr.TaskIndex < 0 || sr.TaskIndex >= spec.Tasks {
			return nil, fmt.Errorf("workload: request %d task index %d out of range", i, sr.TaskIndex)
		}
		w.Requests[i] = Request{
			ID: sr.ID, ArrivalAt: sr.ArrivalAt, TaskIndex: sr.TaskIndex,
			CD: grid.DomainID(sr.CD), ToA: toa, ClientRTL: rtl,
			Deadline: sr.Deadline,
		}
	}
	// Every request must be able to compute a trust cost on every
	// machine; surface gaps now rather than mid-simulation.
	for _, r := range w.Requests {
		for mi := 0; mi < spec.Machines; mi++ {
			if _, err := w.TrustCost(r, mi); err != nil {
				return nil, fmt.Errorf("workload: loaded instance incomplete: %w", err)
			}
		}
	}
	return w, nil
}
