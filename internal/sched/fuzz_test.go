package sched

import (
	"testing"
	"testing/quick"

	"gridtrust/internal/rng"
)

// allImmediate enumerates every immediate-mode heuristic (fresh SA each
// call because it carries switching state).
func allImmediate() []Immediate {
	sa, _ := NewSA(0.6, 0.9)
	return []Immediate{MCT{}, MET{}, OLB{}, KPB{Percent: 50}, sa}
}

// allBatch enumerates every batch-mode heuristic.
func allBatch() []Batch {
	return []Batch{
		MinMin{}, MaxMin{}, Sufferage{}, Duplex{},
		NewGeneticAlgorithm(3), NewSimulatedAnnealing(3),
	}
}

// TestFuzzImmediateInvariants drives random instances through every
// immediate heuristic under every policy and checks the universal
// invariants: a valid machine, a finite decision completion no earlier
// than the machine's availability, and no mutation of the availability
// vector.
func TestFuzzImmediateInvariants(t *testing.T) {
	src := rng.New(20260706)
	policies := []Policy{
		MustTrustAware(DefaultTCWeight),
		MustTrustUnaware(DefaultFlatOverheadPct),
		MustTrustBlind(DefaultTCWeight),
	}
	f := func(tasksRaw, machinesRaw, availSeed uint8) bool {
		tasks := int(tasksRaw%8) + 1
		machines := int(machinesRaw%6) + 1
		c := randomInstance(src, tasks, machines)
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = float64(availSeed) * src.Float64() * 10
		}
		snapshot := make([]float64, machines)
		copy(snapshot, avail)
		for _, h := range allImmediate() {
			for _, p := range policies {
				for r := 0; r < tasks; r++ {
					a, err := h.AssignOne(c, p, r, avail)
					if err != nil {
						return false
					}
					if a.Machine < 0 || a.Machine >= machines {
						return false
					}
					if a.DecisionCompletion < avail[a.Machine]-1e-9 {
						return false
					}
				}
				for m := range avail {
					if avail[m] != snapshot[m] {
						return false // heuristic mutated its input
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzBatchInvariants drives random instances through every batch
// heuristic: every request assigned exactly once to a valid machine, the
// availability vector untouched, decision completions consistent with a
// replay of the schedule.
func TestFuzzBatchInvariants(t *testing.T) {
	src := rng.New(999)
	p := MustTrustAware(DefaultTCWeight)
	f := func(tasksRaw, machinesRaw uint8) bool {
		tasks := int(tasksRaw%12) + 1
		machines := int(machinesRaw%5) + 1
		c := randomInstance(src, tasks, machines)
		reqs := reqRange(tasks)
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = src.Float64() * 50
		}
		snapshot := make([]float64, machines)
		copy(snapshot, avail)
		for _, h := range allBatch() {
			as, err := h.AssignBatchInto(c, p, reqs, avail, nil)
			if err != nil {
				return false
			}
			if len(as) != tasks {
				return false
			}
			seen := make(map[int]bool, tasks)
			for _, a := range as {
				if seen[a.Req] || a.Machine < 0 || a.Machine >= machines {
					return false
				}
				seen[a.Req] = true
			}
			for m := range avail {
				if avail[m] != snapshot[m] {
					return false
				}
			}
			// The charged makespan of any schedule is at least the
			// initial availability maximum.
			ms, err := ChargedMakespan(c, p, as, avail)
			if err != nil {
				return false
			}
			maxA := 0.0
			for _, v := range avail {
				if v > maxA {
					maxA = v
				}
			}
			if ms < maxA-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// FuzzKernelEquivalence cross-checks the incremental batch kernels
// against the reference implementations on fuzzed cost matrices.  The
// decoder maps raw bytes onto small NaN/Inf-free integer-ish costs so
// duplicate completion times (the hard tie cases) are common, and the
// shape bytes reach the single-machine and single-task corners.  An
// availability byte of 0xF0 or more masks its machine (+Inf), except
// machine 0's, so a feasible pair always exists.
func FuzzKernelEquivalence(f *testing.F) {
	// Seed corpus: generic, single-machine, all-ties, single-task, and
	// masked machines.
	f.Add([]byte{7, 3, 9, 2, 8, 4, 5, 5, 5, 1, 9, 2}, uint8(3), uint8(2))
	f.Add([]byte{3, 5, 1, 5}, uint8(3), uint8(0))       // 4 tasks, 1 machine
	f.Add([]byte{2, 2, 2, 2, 2, 2}, uint8(2), uint8(1)) // constant matrix
	f.Add([]byte{42}, uint8(0), uint8(4))               // 1 task
	f.Add([]byte{5, 2, 0xF3, 9, 0xFA, 1, 0xFF}, uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, tasksRaw, machinesRaw uint8) {
		tasks := int(tasksRaw%24) + 1
		machines := int(machinesRaw%8) + 1
		if len(data) == 0 {
			data = []byte{1}
		}
		at := func(k int) byte { return data[k%len(data)] }
		exec := make([][]float64, tasks)
		tc := make([][]int, tasks)
		k := 0
		for i := 0; i < tasks; i++ {
			exec[i] = make([]float64, machines)
			tc[i] = make([]int, machines)
			for m := 0; m < machines; m++ {
				// Costs in [1,17) with a fractional part from a small set:
				// finite, positive, tie-prone.
				exec[i][m] = float64(at(k)%16) + 1 + float64(at(k+1)%4)*0.25
				tc[i][m] = int(at(k+2) % 7)
				k += 3
			}
		}
		c, err := NewMatrixCosts(exec, tc)
		if err != nil {
			t.Fatal(err)
		}
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = float64(at(k) % 8)
			if at(k) >= 0xF0 && m > 0 {
				avail[m] = Masked()
			}
			k++
		}
		reqs := reqRange(tasks)
		// The same instance folded into machine groups takes the row
		// path of kernelState.fill; both must match the references
		// under every decision form.
		groups := int(at(k)%4) + 1
		rc := grouped(c, groups, func(m int) int { return int(at(k + 1 + m)) })
		for _, p := range rowPolicies() {
			assertRowFillIdentical(t, rc, p, reqs, avail)
			for _, inst := range []Costs{c, rc} {
				refMin, err := referenceMinMaxMin(inst, p, reqs, avail, false)
				if err != nil {
					t.Fatal(err)
				}
				optMin, err := (MinMin{}).AssignBatchInto(inst, p, reqs, avail, nil)
				if err != nil {
					t.Fatal(err)
				}
				diffSchedules(t, "Min-min", optMin, refMin)

				refMax, err := referenceMinMaxMin(inst, p, reqs, avail, true)
				if err != nil {
					t.Fatal(err)
				}
				optMax, err := (MaxMin{}).AssignBatchInto(inst, p, reqs, avail, nil)
				if err != nil {
					t.Fatal(err)
				}
				diffSchedules(t, "Max-min", optMax, refMax)

				refSuf, err := referenceSufferage(inst, p, reqs, avail)
				if err != nil {
					t.Fatal(err)
				}
				optSuf, err := (Sufferage{}).AssignBatchInto(inst, p, reqs, avail, nil)
				if err != nil {
					t.Fatal(err)
				}
				diffSchedules(t, "Sufferage", optSuf, refSuf)
			}
		}
	})
}

// diffSchedules fails the fuzz run on the first divergent assignment.
func diffSchedules(t *testing.T, label string, got, want []Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: optimized emitted %d assignments, reference %d", label, len(got), len(want))
	}
	for k := range want {
		if !sameAssignment(got[k], want[k]) {
			t.Fatalf("%s: assignment %d differs: optimized %+v, reference %+v", label, k, got[k], want[k])
		}
	}
}

// TestFuzzDecisionCompletionReplay verifies that batch heuristics'
// reported DecisionCompletion values match an independent replay of their
// schedule under decision costs.
func TestFuzzDecisionCompletionReplay(t *testing.T) {
	src := rng.New(31415)
	p := MustTrustAware(DefaultTCWeight)
	for trial := 0; trial < 25; trial++ {
		tasks := 1 + src.Intn(15)
		machines := 1 + src.Intn(5)
		c := randomInstance(src, tasks, machines)
		reqs := reqRange(tasks)
		avail := make([]float64, machines)
		for _, h := range []Batch{MinMin{}, MaxMin{}, Sufferage{}} {
			as, err := h.AssignBatchInto(c, p, reqs, avail, nil)
			if err != nil {
				t.Fatal(err)
			}
			replay := make([]float64, machines)
			for _, a := range as {
				ecc, err := decisionECC(c, p, a.Req, a.Machine)
				if err != nil {
					t.Fatal(err)
				}
				replay[a.Machine] += ecc
				if diff := replay[a.Machine] - a.DecisionCompletion; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("%s trial %d: request %d decision completion %g, replay %g",
						h.Name(), trial, a.Req, a.DecisionCompletion, replay[a.Machine])
				}
			}
		}
	}
}
