package sched

import (
	"testing"

	"gridtrust/internal/rng"
)

func metaHeuristics() []Batch {
	return []Batch{NewGeneticAlgorithm(7), NewSimulatedAnnealing(7)}
}

func TestMetaAssignEveryRequestOnce(t *testing.T) {
	src := rng.New(3)
	c := randomInstance(src, 24, 5)
	reqs := reqRange(24)
	avail := make([]float64, 5)
	for _, h := range metaHeuristics() {
		as, err := h.AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		seen := map[int]bool{}
		for _, a := range as {
			if seen[a.Req] {
				t.Fatalf("%s assigned %d twice", h.Name(), a.Req)
			}
			seen[a.Req] = true
			if a.Machine < 0 || a.Machine >= 5 {
				t.Fatalf("%s used machine %d", h.Name(), a.Machine)
			}
		}
		if len(seen) != 24 {
			t.Fatalf("%s assigned %d of 24", h.Name(), len(seen))
		}
	}
}

// TestMetaNeverWorseThanMinMin: both metaheuristics are seeded with the
// Min-min schedule and track the best solution, so their decision makespan
// cannot exceed Min-min's.
func TestMetaNeverWorseThanMinMin(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		c := randomInstance(src, 30, 5)
		reqs := reqRange(30)
		avail := make([]float64, 5)
		mm, err := (MinMin{}).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		mmMS := decisionMakespan(mm, avail)
		for _, h := range metaHeuristics() {
			as, err := h.AssignBatchInto(c, aware, reqs, avail, nil)
			if err != nil {
				t.Fatal(err)
			}
			ms := decisionMakespan(as, avail)
			if ms > mmMS+1e-9 {
				t.Fatalf("trial %d: %s makespan %.2f worse than Min-min %.2f",
					trial, h.Name(), ms, mmMS)
			}
		}
	}
}

// TestMetaUsuallyBeatsMinMin: across many instances the metaheuristics
// should strictly improve on Min-min a healthy fraction of the time —
// otherwise the search is not searching.
func TestMetaUsuallyBeatsMinMin(t *testing.T) {
	src := rng.New(13)
	improvedGA, improvedSA := 0, 0
	const trials = 15
	for trial := 0; trial < trials; trial++ {
		c := randomInstance(src, 40, 5)
		reqs := reqRange(40)
		avail := make([]float64, 5)
		mm, err := (MinMin{}).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		mmMS := decisionMakespan(mm, avail)
		ga, err := NewGeneticAlgorithm(uint64(trial)).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		if decisionMakespan(ga, avail) < mmMS-1e-9 {
			improvedGA++
		}
		sa, err := NewSimulatedAnnealing(uint64(trial)).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		if decisionMakespan(sa, avail) < mmMS-1e-9 {
			improvedSA++
		}
	}
	if improvedGA < trials/3 {
		t.Errorf("GA improved on Min-min only %d/%d times", improvedGA, trials)
	}
	if improvedSA < trials/3 {
		t.Errorf("SAnneal improved on Min-min only %d/%d times", improvedSA, trials)
	}
}

func TestMetaDeterministicBySeed(t *testing.T) {
	src := rng.New(17)
	c := randomInstance(src, 20, 4)
	reqs := reqRange(20)
	avail := make([]float64, 4)
	for _, build := range []func(uint64) Batch{
		func(s uint64) Batch { return NewGeneticAlgorithm(s) },
		func(s uint64) Batch { return NewSimulatedAnnealing(s) },
	} {
		a, err := build(5).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := build(5).AssignBatchInto(c, aware, reqs, avail, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("same seed diverged at assignment %d", i)
			}
		}
	}
}

func TestMetaParameterValidation(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 2}})
	avail := []float64{0, 0}
	badGA := []GeneticAlgorithm{
		{Population: 1, Generations: 10, CrossoverRate: 0.5, MutationRate: 0.1},
		{Population: 10, Generations: 0, CrossoverRate: 0.5, MutationRate: 0.1},
		{Population: 10, Generations: 10, CrossoverRate: 1.5, MutationRate: 0.1},
		{Population: 10, Generations: 10, CrossoverRate: 0.5, MutationRate: -1},
		{Population: 10, Generations: 10, CrossoverRate: 0.5, MutationRate: 0.1, Patience: -1},
	}
	for i, g := range badGA {
		if _, err := g.AssignBatchInto(c, aware, []int{0}, avail, nil); err == nil {
			t.Errorf("bad GA %d accepted", i)
		}
	}
	badSA := []SimulatedAnnealing{
		{InitialTempFactor: 0, Cooling: 0.9, MinTempFraction: 0.001},
		{InitialTempFactor: 0.1, Cooling: 1.0, MinTempFraction: 0.001},
		{InitialTempFactor: 0.1, Cooling: 0.9, MinTempFraction: 0},
		{InitialTempFactor: 0.1, Cooling: 0.9, MovesPerTemp: -1, MinTempFraction: 0.001},
	}
	for i, s := range badSA {
		if _, err := s.AssignBatchInto(c, aware, []int{0}, avail, nil); err == nil {
			t.Errorf("bad SA %d accepted", i)
		}
	}
}

func TestMetaEmptyBatch(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 2}})
	for _, h := range metaHeuristics() {
		as, err := h.AssignBatchInto(c, aware, nil, []float64{0, 0}, nil)
		if err != nil || len(as) != 0 {
			t.Errorf("%s on empty batch: %v, %v", h.Name(), as, err)
		}
	}
}

func TestMetaRespectsAvailability(t *testing.T) {
	// One request, machine 0 heavily loaded: both must pick machine 1.
	c := zeroTC(t, [][]float64{{5, 5}})
	for _, h := range metaHeuristics() {
		as, err := h.AssignBatchInto(c, aware, []int{0}, []float64{1000, 0}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if as[0].Machine != 1 {
			t.Errorf("%s ignored availability: %+v", h.Name(), as[0])
		}
	}
}

func TestGSAInvariants(t *testing.T) {
	src := rng.New(21)
	c := randomInstance(src, 25, 5)
	reqs := reqRange(25)
	avail := make([]float64, 5)
	gsa := NewGSA(4)
	as, err := gsa.AssignBatchInto(c, aware, reqs, avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, a := range as {
		if seen[a.Req] || a.Machine < 0 || a.Machine >= 5 {
			t.Fatalf("GSA produced invalid assignment %+v", a)
		}
		seen[a.Req] = true
	}
	if len(seen) != 25 {
		t.Fatalf("GSA assigned %d of 25", len(seen))
	}
	// Never worse than Min-min (seeded + best-tracked).
	mm, err := (MinMin{}).AssignBatchInto(c, aware, reqs, avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if decisionMakespan(as, avail) > decisionMakespan(mm, avail)+1e-9 {
		t.Fatalf("GSA makespan %.2f worse than Min-min %.2f",
			decisionMakespan(as, avail), decisionMakespan(mm, avail))
	}
	// Deterministic by seed.
	again, err := NewGSA(4).AssignBatchInto(c, aware, reqs, avail, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range as {
		if as[i] != again[i] {
			t.Fatal("GSA not deterministic for a fixed seed")
		}
	}
}

func TestGSAValidation(t *testing.T) {
	c := zeroTC(t, [][]float64{{1, 2}})
	bad := NewGSA(1)
	bad.Cooling = 1.5
	if _, err := bad.AssignBatchInto(c, aware, []int{0}, []float64{0, 0}, nil); err == nil {
		t.Error("bad cooling accepted")
	}
	bad = NewGSA(1)
	bad.InitialTempFactor = 0
	if _, err := bad.AssignBatchInto(c, aware, []int{0}, []float64{0, 0}, nil); err == nil {
		t.Error("zero temperature accepted")
	}
	bad = NewGSA(1)
	bad.GA.Population = 0
	if _, err := bad.AssignBatchInto(c, aware, []int{0}, []float64{0, 0}, nil); err == nil {
		t.Error("bad GA parameters accepted")
	}
}
