package workload

import (
	"fmt"

	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
)

// Request is one client request: a task to execute, its originating client
// domain, the (possibly composed) type of activity it engages in, and the
// client-side required trust level.  TaskIndex keys the EEC matrix row.
type Request struct {
	ID        int
	ArrivalAt float64
	TaskIndex int
	CD        grid.DomainID
	ToA       grid.ToA
	ClientRTL grid.TrustLevel
	// Deadline is the absolute time by which the client wants the task
	// finished; 0 means no deadline.  Deadlines extend the paper with
	// the QoS concern its introduction motivates (refs [7, 11]).
	Deadline float64
}

// Spec captures the stochastic workload parameters of Section 5.3.
type Spec struct {
	// Tasks is the number of requests to generate (the paper runs 50 and
	// 100).
	Tasks int
	// Machines is the number of machines (the paper uses 5).
	Machines int

	// NumCDs and NumRDs are the domain counts; "the number of CDs and
	// RDs were randomly generated from [1, 4]" — the generator draws
	// them when these are zero, otherwise the given values are used.
	NumCDs, NumRDs int

	// ArrivalRate is the Poisson arrival rate (requests per simulated
	// second).  Inter-arrival times are exponential with this rate.
	ArrivalRate float64

	// MinToAs/MaxToAs bound the number of activities per request:
	// "randomly generated from [1, 4]".
	MinToAs, MaxToAs int

	// Heterogeneity and Consistency select the EEC matrix class.
	Heterogeneity Heterogeneity
	Consistency   Consistency

	// ETSRule selects the Table 1 reading used for trust costs.  The
	// zero value is grid.ETSTable1 (the literal table); PaperSpec uses
	// grid.ETSLinear, which is what reproduces Tables 4-9 (see the
	// grid.ETSRule doc comment and EXPERIMENTS.md).
	ETSRule grid.ETSRule

	// DeadlineSlack, when positive, gives every request a deadline of
	// arrival + DeadlineSlack x (its mean EEC across machines).  Zero
	// disables deadlines (the paper's setting).
	DeadlineSlack float64
}

// PaperSpec returns the Section 5.3 configuration for the given task count
// and consistency class (the two knobs the paper varies across Tables 4-9).
// Domain counts are drawn from [1,4] at generation time.
func PaperSpec(tasks int, c Consistency) Spec {
	return Spec{
		Tasks:    tasks,
		Machines: 5,
		// 0.04 req/s puts the trust-unaware system at the paper's
		// 85-95% machine utilization with LoLo costs on 5 machines —
		// the near-saturation regime its Tables 4-9 report.
		ArrivalRate:   0.04,
		MinToAs:       1,
		MaxToAs:       4,
		Heterogeneity: LoLo,
		Consistency:   c,
		ETSRule:       grid.ETSLinear,
	}
}

// Workload is a fully materialised simulation input: the EEC matrix, the
// request stream sorted by arrival, the domain structure, the per-domain
// resource RTLs and the populated trust-level table.
type Workload struct {
	Spec     Spec
	EEC      *Matrix
	Requests []Request

	NumCDs, NumRDs int

	// MachineRD maps machine index -> resource domain.
	MachineRD []grid.DomainID
	// ResourceRTL maps resource domain -> the RD-side required trust
	// level ("the two RTL values were randomly generated from [1, 6]").
	ResourceRTL map[grid.DomainID]grid.TrustLevel
	// Table holds OTL entries for every (CD, RD, activity) triple,
	// drawn from [1, 5] per Section 5.3.
	Table *grid.TrustTable
}

// validate checks a Spec before generation.
func (s Spec) validate() error {
	switch {
	case s.Tasks <= 0:
		return fmt.Errorf("workload: Tasks must be positive, got %d", s.Tasks)
	case s.Machines <= 0:
		return fmt.Errorf("workload: Machines must be positive, got %d", s.Machines)
	case s.ArrivalRate <= 0:
		return fmt.Errorf("workload: ArrivalRate must be positive, got %g", s.ArrivalRate)
	case s.MinToAs < 1 || s.MaxToAs < s.MinToAs:
		return fmt.Errorf("workload: bad ToA bounds [%d,%d]", s.MinToAs, s.MaxToAs)
	case s.MaxToAs > int(grid.NumBuiltinActivities):
		return fmt.Errorf("workload: MaxToAs %d exceeds the %d available activities",
			s.MaxToAs, grid.NumBuiltinActivities)
	case s.NumCDs < 0 || s.NumRDs < 0:
		return fmt.Errorf("workload: negative domain counts")
	case s.NumCDs > grid.TableDomains || s.NumRDs > grid.TableDomains:
		return fmt.Errorf("workload: %d CDs / %d RDs past the trust table's %d domain ids", s.NumCDs, s.NumRDs, grid.TableDomains)
	case !s.ETSRule.Valid():
		return fmt.Errorf("workload: invalid ETS rule %d", int(s.ETSRule))
	case s.DeadlineSlack < 0:
		return fmt.Errorf("workload: negative deadline slack %g", s.DeadlineSlack)
	}
	return nil
}

// NewWorkload draws a complete workload from the spec using src.  The same
// source state yields the same workload, which is what makes paired
// trust-aware vs trust-unaware comparisons exact.
func NewWorkload(src *rng.Source, s Spec) (*Workload, error) {
	if src == nil {
		return nil, fmt.Errorf("workload: nil random source")
	}
	if err := s.validate(); err != nil {
		return nil, err
	}

	numCDs := s.NumCDs
	if numCDs == 0 {
		numCDs = src.IntRange(1, 4)
	}
	numRDs := s.NumRDs
	if numRDs == 0 {
		numRDs = src.IntRange(1, 4)
	}

	eec, err := Generate(src, s.Tasks, s.Machines, s.Heterogeneity, s.Consistency)
	if err != nil {
		return nil, err
	}

	w := &Workload{
		Spec:        s,
		EEC:         eec,
		NumCDs:      numCDs,
		NumRDs:      numRDs,
		MachineRD:   make([]grid.DomainID, s.Machines),
		ResourceRTL: make(map[grid.DomainID]grid.TrustLevel, numRDs),
		Table:       grid.NewTrustTable(),
	}

	// Assign machines to RDs round-robin so every RD owns at least one
	// machine whenever machines >= RDs.
	for m := 0; m < s.Machines; m++ {
		w.MachineRD[m] = grid.DomainID(m % numRDs)
	}

	// Resource-side RTL per RD, drawn from [1,6].
	for rd := 0; rd < numRDs; rd++ {
		w.ResourceRTL[grid.DomainID(rd)] = grid.TrustLevel(src.IntRange(1, 6))
	}

	// Populate the trust-level table: an OTL in [1,5] for every
	// (CD, RD, activity) triple, so OTL lookups never miss.  It is one
	// write, at the version a Set per entry would have reached.
	entries := make([]grid.TableEntry, 0, numCDs*numRDs*grid.NumBuiltinActivities)
	for cd := 0; cd < numCDs; cd++ {
		for rd := 0; rd < numRDs; rd++ {
			for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
				tl := grid.TrustLevel(src.IntRange(1, 5))
				entries = append(entries, grid.TableEntry{CD: grid.DomainID(cd), RD: grid.DomainID(rd), Activity: a, Level: tl})
			}
		}
	}
	if err := w.Table.Restore(entries, uint64(len(entries))); err != nil {
		return nil, err
	}

	// Request stream: Poisson arrivals, random CD, composed ToA of
	// [MinToAs,MaxToAs] distinct activities, client RTL in [1,6].
	now := 0.0
	w.Requests = make([]Request, s.Tasks)
	for i := 0; i < s.Tasks; i++ {
		now += src.Exponential(s.ArrivalRate)
		nActs := src.IntRange(s.MinToAs, s.MaxToAs)
		perm := src.Perm(int(grid.NumBuiltinActivities))
		acts := make([]grid.Activity, nActs)
		for k := 0; k < nActs; k++ {
			acts[k] = grid.Activity(perm[k])
		}
		toa, err := grid.NewToA(acts...)
		if err != nil {
			return nil, err
		}
		req := Request{
			ID:        i,
			ArrivalAt: now,
			TaskIndex: i,
			CD:        grid.DomainID(src.Intn(numCDs)),
			ToA:       toa,
			ClientRTL: grid.TrustLevel(src.IntRange(1, 6)),
		}
		if s.DeadlineSlack > 0 {
			meanEEC := 0.0
			for m := 0; m < s.Machines; m++ {
				meanEEC += eec.At(i, m)
			}
			meanEEC /= float64(s.Machines)
			req.Deadline = now + s.DeadlineSlack*meanEEC
		}
		w.Requests[i] = req
	}
	return w, nil
}

// TrustCostRD returns the paper's TC for request r on any machine of
// resource domain rd: the ETS of the effective RTL (max of client and
// resource) against the OTL the RD offers for the request's composed ToA.
// Trust is kept between domains (Section 3.1), so this is the pricing
// entry point; a machine inherits its RD's cost.
func (w *Workload) TrustCostRD(r Request, rd grid.DomainID) (int, error) {
	otl, err := w.Table.OTL(r.CD, rd, r.ToA)
	if err != nil {
		return 0, err
	}
	return grid.TrustCostWith(w.Spec.ETSRule, r.ClientRTL, w.ResourceRTL[rd], otl)
}

// TrustCost returns the paper's TC for request r on machine m, which is
// the TC of the machine's resource domain.
func (w *Workload) TrustCost(r Request, machine int) (int, error) {
	if machine < 0 || machine >= len(w.MachineRD) {
		return 0, fmt.Errorf("workload: machine %d out of range", machine)
	}
	return w.TrustCostRD(r, w.MachineRD[machine])
}

// TCDistribution summarises the trust costs of a workload over all
// (request, machine) pairs: Counts[tc] pairs carry trust cost tc, and Mean
// is the average.  The paper calibrates its ESC weights around "the
// average TC value is 3"; this helper lets callers verify that property on
// any generated instance.
type TCDistribution struct {
	Counts [grid.TCMax + 1]int
	Mean   float64
	Pairs  int
}

// TCStats computes the trust-cost distribution of the workload.
func (w *Workload) TCStats() (TCDistribution, error) {
	var d TCDistribution
	var sum float64
	for _, r := range w.Requests {
		for m := 0; m < w.Spec.Machines; m++ {
			tc, err := w.TrustCost(r, m)
			if err != nil {
				return TCDistribution{}, err
			}
			d.Counts[tc]++
			d.Pairs++
			sum += float64(tc)
		}
	}
	if d.Pairs > 0 {
		d.Mean = sum / float64(d.Pairs)
	}
	return d, nil
}
