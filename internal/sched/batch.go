package sched

import (
	"fmt"
	"math"
)

// Batch is a batch-mode (meta-request) mapping heuristic: it maps a whole
// set of requests given the machine availability at batch time, returning
// assignments in the order they should be dispatched per machine.
// Implementations must not mutate avail; they work on an internal copy.
type Batch interface {
	Name() string
	AssignBatch(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error)
}

// validateBatch extends validateInstance with request-set checks.
func validateBatch(c Costs, p Policy, reqs []int, avail []float64) error {
	if err := validateInstance(c, p, avail); err != nil {
		return err
	}
	for _, r := range reqs {
		if r < 0 || r >= c.NumRequests() {
			return fmt.Errorf("sched: request index %d outside [0,%d)", r, c.NumRequests())
		}
	}
	return nil
}

// MinMin is the Min-min batch heuristic: repeatedly find, over all
// unassigned tasks, the (task, machine) pair with the minimum completion
// time; assign it; update availability; repeat.  "Min-min begins by
// scheduling the tasks that change the expected machine available time by
// the least amount" (Section 4.1).
type MinMin struct{}

// Name returns "Min-min".
func (MinMin) Name() string { return "Min-min" }

// AssignBatch maps the meta-request with the Min-min rule.
func (MinMin) AssignBatch(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error) {
	return minMaxMinKernel(c, p, reqs, avail, false, nil)
}

// AssignBatchInto is AssignBatch appending into dst.
func (MinMin) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	return minMaxMinKernel(c, p, reqs, avail, false, dst)
}

// MaxMin is the Max-min batch heuristic from [10]: like Min-min but pick
// the task whose best completion time is *largest*, so long tasks are
// placed first.
type MaxMin struct{}

// Name returns "Max-min".
func (MaxMin) Name() string { return "Max-min" }

// AssignBatch maps the meta-request with the Max-min rule.
func (MaxMin) AssignBatch(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error) {
	return minMaxMinKernel(c, p, reqs, avail, true, nil)
}

// AssignBatchInto is AssignBatch appending into dst.
func (MaxMin) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	return minMaxMinKernel(c, p, reqs, avail, true, dst)
}

// Sufferage is the batch heuristic "based on the idea that better mappings
// can be generated by assigning a machine to a task that would 'suffer'
// most in terms of expected completion time if that particular machine is
// not assigned to it" (Section 4.1).  Each iteration sweeps the remaining
// tasks in order; a task claims its best machine unless another task
// already holding that machine has a larger sufferage (best minus
// second-best completion time).  "The unchosen request will not be
// considered again for execution until the next iteration."
type Sufferage struct{}

// Name returns "Sufferage".
func (Sufferage) Name() string { return "Sufferage" }

// AssignBatch maps the meta-request with the Sufferage rule.
func (Sufferage) AssignBatch(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error) {
	return sufferageKernel(c, p, reqs, avail, nil)
}

// AssignBatchInto is AssignBatch appending into dst.
func (Sufferage) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	return sufferageKernel(c, p, reqs, avail, dst)
}

// Duplex runs Min-min and Max-min on the batch and keeps whichever
// schedule achieves the smaller decision makespan — the Duplex heuristic
// of [10].
type Duplex struct{}

// Name returns "Duplex".
func (Duplex) Name() string { return "Duplex" }

// AssignBatch maps the meta-request with both Min-min and Max-min and
// returns the better schedule.
func (d Duplex) AssignBatch(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error) {
	return d.AssignBatchInto(c, p, reqs, avail, nil)
}

// AssignBatchInto is AssignBatch appending the winning schedule into dst;
// the losing candidate lives in pooled scratch.
func (Duplex) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	minA, err := minMaxMinKernel(c, p, reqs, avail, false, dst)
	if err != nil {
		return nil, err
	}
	buf := asgBufPool.Get().(*[]Assignment)
	defer asgBufPool.Put(buf)
	maxA, err := minMaxMinKernel(c, p, reqs, avail, true, (*buf)[:0])
	if err != nil {
		return nil, err
	}
	*buf = maxA
	if decisionMakespan(minA, avail) <= decisionMakespan(maxA, avail) {
		return minA, nil
	}
	return append(minA[:0], maxA...), nil
}

// decisionMakespan computes the makespan implied by a schedule's decision
// completions, including up machines that received no work; a masked
// machine receives none and does not count.
func decisionMakespan(as []Assignment, avail []float64) float64 {
	ms := math.Inf(-1)
	for _, a := range avail {
		if a > ms && !IsMasked(a) {
			ms = a
		}
	}
	for _, asg := range as {
		if asg.DecisionCompletion > ms {
			ms = asg.DecisionCompletion
		}
	}
	return ms
}

// Compile-time checks that every deterministic batch heuristic offers the
// allocation-free entry point.
var (
	_ BatchInto = MinMin{}
	_ BatchInto = MaxMin{}
	_ BatchInto = Sufferage{}
	_ BatchInto = Duplex{}
)

// BatchByName resolves a batch heuristic from its canonical name.
// Recognised: "minmin", "maxmin", "sufferage", "duplex".
func BatchByName(name string) (Batch, error) {
	switch name {
	case "minmin", "min-min", "Min-min":
		return MinMin{}, nil
	case "maxmin", "max-min", "Max-min":
		return MaxMin{}, nil
	case "sufferage", "Sufferage":
		return Sufferage{}, nil
	case "duplex", "Duplex":
		return Duplex{}, nil
	case "ga", "GA":
		// Fixed internal seed: the registry must return deterministic
		// heuristics; construct GeneticAlgorithm directly to vary it.
		return NewGeneticAlgorithm(1), nil
	case "sanneal", "SAnneal":
		return NewSimulatedAnnealing(1), nil
	case "gsa", "GSA":
		return NewGSA(1), nil
	default:
		return nil, fmt.Errorf("sched: unknown batch heuristic %q", name)
	}
}
