package sched

import (
	"fmt"
	"math"

	"gridtrust/internal/rng"
)

// This file implements the classic metaheuristic mappers used as strong
// baselines in the heterogeneous-computing mapping literature the paper
// builds on (Braun et al.'s companion study to [10]): a genetic
// algorithm, simulated annealing, and their GSA hybrid.  All operate in
// batch mode on the same decision costs as the deterministic heuristics,
// all are seeded with the Min-min schedule and track the best solution
// found, so their decision makespan is never worse than Min-min's.

// assignmentVectorToSchedule converts a machines-per-request vector into
// ordered Assignments appended to dst[:0]: requests are dispatched machine
// by machine in vector order, reproducing list-schedule semantics, at the
// decision ECCs of a flat table with row stride len(avail).
func assignmentVectorToSchedule(table []float64, reqs []int, vec []int, avail []float64, dst []Assignment) []Assignment {
	a := make([]float64, len(avail))
	copy(a, avail)
	out := dst[:0]
	for i, r := range reqs {
		m := vec[i]
		a[m] += table[i*len(avail)+m]
		out = append(out, Assignment{Req: r, Machine: m, DecisionCompletion: a[m]})
	}
	return out
}

// vectorMakespan evaluates the decision makespan of a machines-per-request
// vector against a precomputed flat ECC table with row stride len(scratch).
func vectorMakespan(table []float64, vec []int, avail []float64, scratch []float64) float64 {
	copy(scratch, avail)
	nm := len(scratch)
	for i, m := range vec {
		scratch[m] += table[i*nm+m]
	}
	ms := scratch[0]
	for _, v := range scratch[1:] {
		if v > ms {
			ms = v
		}
	}
	return ms
}

// minMinVector runs Min-min and returns its machine vector in reqs order.
func minMinVector(c Costs, p Policy, reqs []int, avail []float64) ([]int, error) {
	as, err := minMaxMinKernel(c, p, reqs, avail, false, nil)
	if err != nil {
		return nil, err
	}
	pos := make(map[int]int, len(reqs))
	for i, r := range reqs {
		pos[r] = i
	}
	vec := make([]int, len(reqs))
	for _, a := range as {
		vec[pos[a.Req]] = a.Machine
	}
	return vec, nil
}

// GeneticAlgorithm is a batch mapper evolving machine-assignment vectors.
// The zero value is invalid; fill the fields or use NewGeneticAlgorithm.
type GeneticAlgorithm struct {
	// Seed makes runs reproducible; the same seed and instance yield
	// the same schedule.
	Seed uint64
	// Population, Generations, CrossoverRate and MutationRate control
	// the search.  NewGeneticAlgorithm picks literature defaults.
	Population    int
	Generations   int
	CrossoverRate float64
	MutationRate  float64
	// Patience stops early after this many generations without
	// improvement (0 = never stop early).
	Patience int
}

// NewGeneticAlgorithm returns a GA with the defaults used in the mapping
// literature: population 40, 100 generations, crossover 0.6, mutation 0.1,
// patience 25.
func NewGeneticAlgorithm(seed uint64) GeneticAlgorithm {
	return GeneticAlgorithm{
		Seed: seed, Population: 40, Generations: 100,
		CrossoverRate: 0.6, MutationRate: 0.1, Patience: 25,
	}
}

// Name returns "GA".
func (GeneticAlgorithm) Name() string { return "GA" }

// validate rejects unusable parameters.
func (g GeneticAlgorithm) validate() error {
	switch {
	case g.Population < 2:
		return fmt.Errorf("sched: GA population %d < 2", g.Population)
	case g.Generations < 1:
		return fmt.Errorf("sched: GA generations %d < 1", g.Generations)
	case g.CrossoverRate < 0 || g.CrossoverRate > 1:
		return fmt.Errorf("sched: GA crossover rate %g outside [0,1]", g.CrossoverRate)
	case g.MutationRate < 0 || g.MutationRate > 1:
		return fmt.Errorf("sched: GA mutation rate %g outside [0,1]", g.MutationRate)
	case g.Patience < 0:
		return fmt.Errorf("sched: GA patience %d negative", g.Patience)
	}
	return nil
}

// AssignBatchInto evolves a schedule for the meta-request into dst.
func (g GeneticAlgorithm) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	in, err := validateBatch(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return dst[:0], nil
	}
	nm := len(avail)
	var ks kernelState
	if err := ks.fill(in, p, reqs, avail); err != nil {
		return nil, err
	}
	table := ks.table
	src := rng.New(g.Seed)
	scratch := make([]float64, nm)

	// Population: one Min-min chromosome, the rest random.
	pop := make([][]int, g.Population)
	fit := make([]float64, g.Population)
	seedVec, err := minMinVector(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	pop[0] = seedVec
	for i := 1; i < g.Population; i++ {
		vec := make([]int, len(reqs))
		for k := range vec {
			vec[k] = src.Intn(nm)
		}
		pop[i] = vec
	}
	for i := range pop {
		fit[i] = vectorMakespan(table, pop[i], avail, scratch)
	}

	best := make([]int, len(reqs))
	copy(best, pop[0])
	bestFit := fit[0]
	for i := 1; i < g.Population; i++ {
		if fit[i] < bestFit {
			bestFit = fit[i]
			copy(best, pop[i])
		}
	}

	stale := 0
	for gen := 0; gen < g.Generations; gen++ {
		next := make([][]int, 0, g.Population)
		// Elitism: the best survives unchanged.
		elite := make([]int, len(best))
		copy(elite, best)
		next = append(next, elite)
		for len(next) < g.Population {
			a := g.tournament(src, pop, fit)
			b := g.tournament(src, pop, fit)
			child := make([]int, len(reqs))
			if src.Bool(g.CrossoverRate) && len(reqs) > 1 {
				cut := 1 + src.Intn(len(reqs)-1)
				copy(child[:cut], pop[a][:cut])
				copy(child[cut:], pop[b][cut:])
			} else {
				copy(child, pop[a])
			}
			if src.Bool(g.MutationRate) {
				child[src.Intn(len(reqs))] = src.Intn(nm)
			}
			next = append(next, child)
		}
		pop = next
		improved := false
		for i := range pop {
			fit[i] = vectorMakespan(table, pop[i], avail, scratch)
			if fit[i] < bestFit {
				bestFit = fit[i]
				copy(best, pop[i])
				improved = true
			}
		}
		if improved {
			stale = 0
		} else {
			stale++
			if g.Patience > 0 && stale >= g.Patience {
				break
			}
		}
	}
	return assignmentVectorToSchedule(table, reqs, best, avail, dst), nil
}

// tournament picks the fitter of two random population members.
func (g GeneticAlgorithm) tournament(src *rng.Source, pop [][]int, fit []float64) int {
	a := src.Intn(len(pop))
	b := src.Intn(len(pop))
	if fit[a] <= fit[b] {
		return a
	}
	return b
}

// SimulatedAnnealing is a batch mapper that perturbs a Min-min seed
// schedule under a geometric cooling schedule, accepting uphill moves with
// the Boltzmann probability.
type SimulatedAnnealing struct {
	// Seed makes runs reproducible.
	Seed uint64
	// InitialTempFactor scales the starting temperature relative to the
	// seed makespan (default 0.1).
	InitialTempFactor float64
	// Cooling is the geometric cooling factor in (0,1) (default 0.95).
	Cooling float64
	// MovesPerTemp is the neighbourhood sample size per temperature
	// level (default 4x requests).
	MovesPerTemp int
	// MinTempFraction stops the anneal when the temperature falls below
	// this fraction of the initial temperature (default 1e-3).
	MinTempFraction float64
}

// NewSimulatedAnnealing returns an annealer with the defaults above.
func NewSimulatedAnnealing(seed uint64) SimulatedAnnealing {
	return SimulatedAnnealing{
		Seed: seed, InitialTempFactor: 0.1, Cooling: 0.95,
		MovesPerTemp: 0, MinTempFraction: 1e-3,
	}
}

// Name returns "SAnneal".
func (SimulatedAnnealing) Name() string { return "SAnneal" }

// validate rejects unusable parameters.
func (s SimulatedAnnealing) validate() error {
	switch {
	case s.InitialTempFactor <= 0:
		return fmt.Errorf("sched: SA initial temperature factor %g <= 0", s.InitialTempFactor)
	case s.Cooling <= 0 || s.Cooling >= 1:
		return fmt.Errorf("sched: SA cooling %g outside (0,1)", s.Cooling)
	case s.MovesPerTemp < 0:
		return fmt.Errorf("sched: SA moves per temperature %d negative", s.MovesPerTemp)
	case s.MinTempFraction <= 0 || s.MinTempFraction >= 1:
		return fmt.Errorf("sched: SA min temperature fraction %g outside (0,1)", s.MinTempFraction)
	}
	return nil
}

// AssignBatchInto anneals a schedule for the meta-request into dst.
func (s SimulatedAnnealing) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	in, err := validateBatch(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return dst[:0], nil
	}
	nm := len(avail)
	var ks kernelState
	if err := ks.fill(in, p, reqs, avail); err != nil {
		return nil, err
	}
	table := ks.table
	src := rng.New(s.Seed)
	scratch := make([]float64, nm)

	cur, err := minMinVector(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	curFit := vectorMakespan(table, cur, avail, scratch)
	best := make([]int, len(cur))
	copy(best, cur)
	bestFit := curFit

	movesPerTemp := s.MovesPerTemp
	if movesPerTemp == 0 {
		movesPerTemp = 4 * len(reqs)
	}
	temp := curFit * s.InitialTempFactor
	if temp <= 0 {
		temp = 1
	}
	minTemp := temp * s.MinTempFraction
	for temp > minTemp {
		for move := 0; move < movesPerTemp; move++ {
			i := src.Intn(len(reqs))
			old := cur[i]
			next := src.Intn(nm)
			if next == old && nm > 1 {
				next = (next + 1 + src.Intn(nm-1)) % nm
			}
			cur[i] = next
			fit := vectorMakespan(table, cur, avail, scratch)
			delta := fit - curFit
			if delta <= 0 || src.Float64() < math.Exp(-delta/temp) {
				curFit = fit
				if fit < bestFit {
					bestFit = fit
					copy(best, cur)
				}
			} else {
				cur[i] = old // reject
			}
		}
		temp *= s.Cooling
	}
	return assignmentVectorToSchedule(table, reqs, best, avail, dst), nil
}

var (
	_ Batch = GeneticAlgorithm{}
	_ Batch = SimulatedAnnealing{}
)

// GeneticSimulatedAnnealing is the GSA hybrid from the mapping-heuristics
// literature: a genetic algorithm whose survivor selection uses the
// simulated-annealing acceptance test instead of pure elitism — a child
// worse than its parent survives with the Boltzmann probability, and the
// temperature cools every generation.
type GeneticSimulatedAnnealing struct {
	GA GeneticAlgorithm
	// InitialTempFactor scales the starting temperature relative to the
	// Min-min seed makespan; Cooling is applied once per generation.
	InitialTempFactor float64
	Cooling           float64
}

// NewGSA returns a GSA with literature defaults layered on the GA
// defaults.
func NewGSA(seed uint64) GeneticSimulatedAnnealing {
	return GeneticSimulatedAnnealing{
		GA:                NewGeneticAlgorithm(seed),
		InitialTempFactor: 0.1,
		Cooling:           0.9,
	}
}

// Name returns "GSA".
func (GeneticSimulatedAnnealing) Name() string { return "GSA" }

// AssignBatchInto evolves a schedule with annealed survivor selection
// into dst.
func (g GeneticSimulatedAnnealing) AssignBatchInto(c Costs, p Policy, reqs []int, avail []float64, dst []Assignment) ([]Assignment, error) {
	in, err := validateBatch(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	if err := g.GA.validate(); err != nil {
		return nil, err
	}
	if g.InitialTempFactor <= 0 || g.Cooling <= 0 || g.Cooling >= 1 {
		return nil, fmt.Errorf("sched: GSA temperature parameters (%g,%g) invalid",
			g.InitialTempFactor, g.Cooling)
	}
	if len(reqs) == 0 {
		return dst[:0], nil
	}
	nm := len(avail)
	var ks kernelState
	if err := ks.fill(in, p, reqs, avail); err != nil {
		return nil, err
	}
	table := ks.table
	src := rng.New(g.GA.Seed)
	scratch := make([]float64, nm)

	pop := make([][]int, g.GA.Population)
	fit := make([]float64, g.GA.Population)
	seedVec, err := minMinVector(c, p, reqs, avail)
	if err != nil {
		return nil, err
	}
	pop[0] = seedVec
	for i := 1; i < g.GA.Population; i++ {
		vec := make([]int, len(reqs))
		for k := range vec {
			vec[k] = src.Intn(nm)
		}
		pop[i] = vec
	}
	for i := range pop {
		fit[i] = vectorMakespan(table, pop[i], avail, scratch)
	}
	best := make([]int, len(reqs))
	copy(best, pop[0])
	bestFit := fit[0]
	for i := 1; i < g.GA.Population; i++ {
		if fit[i] < bestFit {
			bestFit = fit[i]
			copy(best, pop[i])
		}
	}

	temp := bestFit * g.InitialTempFactor
	if temp <= 0 {
		temp = 1
	}
	for gen := 0; gen < g.GA.Generations; gen++ {
		for i := range pop {
			// Breed a child from this member and a tournament mate.
			mate := g.GA.tournament(src, pop, fit)
			child := make([]int, len(reqs))
			if src.Bool(g.GA.CrossoverRate) && len(reqs) > 1 {
				cut := 1 + src.Intn(len(reqs)-1)
				copy(child[:cut], pop[i][:cut])
				copy(child[cut:], pop[mate][cut:])
			} else {
				copy(child, pop[i])
			}
			if src.Bool(g.GA.MutationRate) {
				child[src.Intn(len(reqs))] = src.Intn(nm)
			}
			childFit := vectorMakespan(table, child, avail, scratch)
			delta := childFit - fit[i]
			if delta <= 0 || src.Float64() < math.Exp(-delta/temp) {
				pop[i], fit[i] = child, childFit
				if childFit < bestFit {
					bestFit = childFit
					copy(best, child)
				}
			}
		}
		temp *= g.Cooling
	}
	return assignmentVectorToSchedule(table, reqs, best, avail, dst), nil
}

var _ Batch = GeneticSimulatedAnnealing{}
