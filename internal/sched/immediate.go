package sched

import (
	"fmt"
	"math"
)

// Immediate is an on-line (immediate-mode) mapping heuristic: it maps each
// request to a machine as the request arrives, given the current machine
// availability vector.  It returns the chosen machine and the decision
// completion time.  Implementations must not mutate avail.
type Immediate interface {
	Name() string
	AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error)
}

// MCT is the minimum-completion-time heuristic: "assigns each task to the
// machine that results in that task's earliest completion time ... As a
// task arrives, all the machines are examined" (Section 4.1).  The
// trust-aware variant minimises availability + EEC + ESC; the unaware
// variant effectively minimises availability + EEC.
type MCT struct{}

// Name returns "MCT".
func (MCT) Name() string { return "MCT" }

// AssignOne maps req to the machine minimising decision completion time,
// by ScanMCT at time 0, where the clamp keeps every availability ≥ 0 (its
// checked precondition; −0 stays −0).  Ties break toward the lower
// machine index, deterministically.
func (MCT) AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error) {
	row, err := requestRow(c, p, req, avail)
	if err != nil {
		return Assignment{}, err
	}
	for m, a := range avail {
		if !(a >= 0) {
			return Assignment{}, fmt.Errorf("sched: MCT: machine %d's availability is %v, want a number >= 0", m, a)
		}
	}
	ks := kernelPool.Get().(*kernelState)
	best, _ := ScanMCT(row.eec, ks.factors(p.decision, row.tcs), row.idx, avail, 0)
	kernelPool.Put(ks)
	if best < 0 {
		return Assignment{}, fmt.Errorf("sched: MCT found no machine for request %d", req)
	}
	// The completion by ESC.Cost: the scan's sum differs from it only in
	// the sign of a zero, under the zero form's eec + 0.
	return Assignment{Req: req, Machine: best, DecisionCompletion: avail[best] + row.cost(p.decision, best)}, nil
}

// requestRow checks an immediate heuristic's instance and reads request
// req's rows.
func requestRow(c Costs, p Policy, req int, avail []float64) (costRow, error) {
	in, err := checkInstance(c, p, avail)
	if err != nil {
		return costRow{}, err
	}
	return in.row(req)
}

// MET is the minimum-execution-time heuristic: it ignores machine load and
// picks the machine with the lowest execution cost for the task.  It is
// the classic load-imbalance baseline from [10].
type MET struct{}

// Name returns "MET".
func (MET) Name() string { return "MET" }

// AssignOne maps req to the machine with minimum decision ECC, ignoring
// availability (load), but never a masked (down) machine.
func (MET) AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error) {
	row, err := requestRow(c, p, req, avail)
	if err != nil {
		return Assignment{}, err
	}
	best := -1
	bestCost := math.Inf(1)
	for m := range row.eec {
		if IsMasked(avail[m]) {
			continue
		}
		if ecc := row.cost(p.decision, m); ecc < bestCost {
			bestCost = ecc
			best = m
		}
	}
	if best < 0 {
		return Assignment{}, fmt.Errorf("sched: MET found no available machine for request %d", req)
	}
	return Assignment{Req: req, Machine: best, DecisionCompletion: avail[best] + bestCost}, nil
}

// OLB is opportunistic load balancing: assign the task to the machine that
// becomes available soonest, regardless of execution cost — the pure
// load-balance baseline from [10].
type OLB struct{}

// Name returns "OLB".
func (OLB) Name() string { return "OLB" }

// AssignOne maps req to the machine with minimum availability.
func (OLB) AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error) {
	row, err := requestRow(c, p, req, avail)
	if err != nil {
		return Assignment{}, err
	}
	best := 0
	for m := 1; m < len(avail); m++ {
		if avail[m] < avail[best] {
			best = m
		}
	}
	if IsMasked(avail[best]) {
		return Assignment{}, fmt.Errorf("sched: OLB found no available machine for request %d", req)
	}
	return Assignment{Req: req, Machine: best, DecisionCompletion: avail[best] + row.cost(p.decision, best)}, nil
}

// KPB is the k-percent-best heuristic from [10]: consider only the
// ⌈k·M/100⌉ machines with the lowest execution cost for the task, then
// pick the one with the earliest completion time among them.  KPB(100) is
// MCT; KPB(100/M) is MET.
type KPB struct {
	// Percent is k in (0,100].
	Percent float64
}

// Name returns e.g. "KPB(50)".
func (k KPB) Name() string { return fmt.Sprintf("KPB(%g)", k.Percent) }

// AssignOne maps req per the k-percent-best rule.
func (k KPB) AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error) {
	row, err := requestRow(c, p, req, avail)
	if err != nil {
		return Assignment{}, err
	}
	if k.Percent <= 0 || k.Percent > 100 {
		return Assignment{}, fmt.Errorf("sched: KPB percent %g outside (0,100]", k.Percent)
	}
	nm := len(row.eec)
	subset := int(math.Ceil(k.Percent * float64(nm) / 100))
	if subset < 1 {
		subset = 1
	}
	// Rank machines by decision ECC (execution view).
	type me struct {
		m   int
		ecc float64
	}
	ranked := make([]me, nm)
	for m := range ranked {
		ranked[m] = me{m, row.cost(p.decision, m)}
	}
	// Insertion sort by (ecc, machine index): nm is small.
	for i := 1; i < nm; i++ {
		v := ranked[i]
		j := i - 1
		for j >= 0 && (ranked[j].ecc > v.ecc || (ranked[j].ecc == v.ecc && ranked[j].m > v.m)) {
			ranked[j+1] = ranked[j]
			j--
		}
		ranked[j+1] = v
	}
	best := -1
	bestDone := math.Inf(1)
	// Scan the k-percent-best subset first; when every machine in it is
	// masked (down), widen to the remaining ranked machines so a crash
	// inside the preferred subset degrades the choice instead of failing
	// the run.
	for i := 0; i < nm; i++ {
		if i >= subset && best >= 0 {
			break
		}
		m := ranked[i].m
		if IsMasked(avail[m]) {
			continue
		}
		if done := avail[m] + ranked[i].ecc; done < bestDone ||
			(done == bestDone && m < best) {
			bestDone = done
			best = m
		}
	}
	if best < 0 {
		return Assignment{}, fmt.Errorf("sched: KPB found no available machine for request %d", req)
	}
	return Assignment{Req: req, Machine: best, DecisionCompletion: bestDone}, nil
}

// SA is the switching algorithm from [10]: it alternates between MCT and
// MET based on the load balance index r = min(avail)/max(avail).  When the
// system is well balanced (r >= High) it uses MET to exploit affinities;
// once imbalance grows (r <= Low) it switches back to MCT to rebalance.
// SA carries state across calls and is therefore a pointer type.
type SA struct {
	// Low and High are the switching thresholds, 0 <= Low <= High <= 1.
	Low, High float64

	useMET bool
}

// NewSA constructs a switching heuristic with validated thresholds.
func NewSA(low, high float64) (*SA, error) {
	if low < 0 || high > 1 || low > high {
		return nil, fmt.Errorf("sched: SA thresholds (%g,%g) invalid", low, high)
	}
	return &SA{Low: low, High: high}, nil
}

// Name returns e.g. "SA(0.6,0.9)".
func (s *SA) Name() string { return fmt.Sprintf("SA(%g,%g)", s.Low, s.High) }

// AssignOne maps req with MET or MCT according to the current load-balance
// regime, measured over the machines that are up.
func (s *SA) AssignOne(c Costs, p Policy, req int, avail []float64) (Assignment, error) {
	if _, err := checkInstance(c, p, avail); err != nil {
		return Assignment{}, err
	}
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, a := range avail {
		if IsMasked(a) {
			continue
		}
		if a < minA {
			minA = a
		}
		if a > maxA {
			maxA = a
		}
	}
	ratio := 1.0
	if maxA > 0 {
		ratio = minA / maxA
	}
	if s.useMET && ratio <= s.Low {
		s.useMET = false
	} else if !s.useMET && ratio >= s.High {
		s.useMET = true
	}
	if s.useMET {
		return MET{}.AssignOne(c, p, req, avail)
	}
	return MCT{}.AssignOne(c, p, req, avail)
}

// ImmediateByName resolves an immediate-mode heuristic from its canonical
// name.  Recognised: "mct", "met", "olb", "kpb" (k=50), "sa".
func ImmediateByName(name string) (Immediate, error) {
	switch name {
	case "mct", "MCT":
		return MCT{}, nil
	case "met", "MET":
		return MET{}, nil
	case "olb", "OLB":
		return OLB{}, nil
	case "kpb", "KPB":
		return KPB{Percent: 50}, nil
	case "sa", "SA":
		return NewSA(0.6, 0.9)
	default:
		return nil, fmt.Errorf("sched: unknown immediate heuristic %q", name)
	}
}
