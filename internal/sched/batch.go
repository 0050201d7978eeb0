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
	BatchInto
}

// BatchInto is a batch heuristic's one mapping method.  It appends the
// schedule of reqs into dst[:0] and returns it, grown as needed; a caller
// that recycles dst maps without allocating in steady state, and a nil
// dst gets a fresh slice.
type BatchInto interface {
	AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error)
}

// validateBatch checks the instance, as checkInstance does, and that
// every request is in it.
func validateBatch(c Costs, p Policy, reqs []int, avail []float64) (instance, error) {
	in, err := checkInstance(c, p, avail)
	if err != nil {
		return instance{}, err
	}
	for _, r := range reqs {
		if r < 0 || r >= in.NumRequests() {
			return instance{}, fmt.Errorf("sched: request index %d outside [0,%d)", r, in.NumRequests())
		}
	}
	return in, nil
}

// MinMin is the Min-min batch heuristic: repeatedly find, over all
// unassigned tasks, the (task, machine) pair with the minimum completion
// time; assign it; update availability; repeat.  "Min-min begins by
// scheduling the tasks that change the expected machine available time by
// the least amount" (Section 4.1).
type MinMin struct{}

// Name returns "Min-min".
func (MinMin) Name() string { return "Min-min" }

// AssignBatchInto maps the meta-request with the Min-min rule.
func (MinMin) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	return minMaxMinKernel(c, p, reqs, avail, false, dst)
}

// MaxMin is the Max-min batch heuristic from [10]: like Min-min but pick
// the task whose best completion time is *largest*, so long tasks are
// placed first.
type MaxMin struct{}

// Name returns "Max-min".
func (MaxMin) Name() string { return "Max-min" }

// AssignBatchInto maps the meta-request with the Max-min rule.
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

// AssignBatchInto maps the meta-request with the Sufferage rule.
func (Sufferage) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	return sufferageKernel(c, p, reqs, avail, dst)
}

// Duplex runs Min-min and Max-min on the batch and keeps whichever
// schedule achieves the smaller decision makespan — the Duplex heuristic
// of [10].
type Duplex struct{}

// Name returns "Duplex".
func (Duplex) Name() string { return "Duplex" }

// AssignBatchInto maps the meta-request with both Min-min and Max-min and
// returns the better schedule in dst; the losing candidate lives in
// pooled scratch.
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
