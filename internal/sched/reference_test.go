package sched

import (
	"fmt"
	"math"
)

// This file preserves the naive O(T²·M) batch-mapping implementations the
// incremental kernels in kernel.go replaced.  They are the executable
// specification of the heuristics: kernel_equiv_test.go and
// FuzzKernelEquivalence assert the kernels emit assignment-for-assignment
// identical schedules, and kernel_bench_test.go benchmarks them as the
// "old" side of the perf trajectory.

// referenceMinMaxMin implements both Min-min (pickMax=false) and Max-min
// (pickMax=true) by full rescan of every remaining (task, machine) pair.
func referenceMinMaxMin(c Costs, p Policy, reqs []int, avail []float64, pickMax bool) ([]Assignment, error) {
	if err := validateBatch(c, p, reqs, avail); err != nil {
		return nil, err
	}
	nm := c.NumMachines()
	table, err := eccTable(c, p, reqs, nm)
	if err != nil {
		return nil, err
	}
	a := make([]float64, nm)
	copy(a, avail)
	remaining := make([]int, len(reqs)) // indices into reqs
	for i := range remaining {
		remaining[i] = i
	}
	out := make([]Assignment, 0, len(reqs))
	for len(remaining) > 0 {
		chosenPos := -1 // position within remaining
		chosenMachine := -1
		chosenDone := math.Inf(1)
		if pickMax {
			chosenDone = math.Inf(-1)
		}
		for pos, i := range remaining {
			// Best machine for request i.
			bm := -1
			bd := math.Inf(1)
			row := table[i*nm : (i+1)*nm]
			for m := 0; m < nm; m++ {
				if done := a[m] + row[m]; done < bd {
					bd = done
					bm = m
				}
			}
			better := bd < chosenDone
			if pickMax {
				better = bd > chosenDone
			}
			if better {
				chosenDone = bd
				chosenMachine = bm
				chosenPos = pos
			}
		}
		i := remaining[chosenPos]
		out = append(out, Assignment{
			Req:                reqs[i],
			Machine:            chosenMachine,
			DecisionCompletion: chosenDone,
		})
		a[chosenMachine] = chosenDone
		remaining = append(remaining[:chosenPos], remaining[chosenPos+1:]...)
	}
	return out, nil
}

// referenceSufferage implements the Sufferage heuristic by recomputing
// every remaining task's (best, second-best) pair on every sweep.
func referenceSufferage(c Costs, p Policy, reqs []int, avail []float64) ([]Assignment, error) {
	if err := validateBatch(c, p, reqs, avail); err != nil {
		return nil, err
	}
	nm := c.NumMachines()
	table, err := eccTable(c, p, reqs, nm)
	if err != nil {
		return nil, err
	}
	a := make([]float64, nm)
	copy(a, avail)
	assigned := make([]bool, len(reqs))
	out := make([]Assignment, 0, len(reqs))
	left := len(reqs)
	for left > 0 {
		// holder[m] is the request position tentatively holding machine
		// m this iteration, -1 if free.
		holder := make([]int, nm)
		sufferOf := make([]float64, nm)
		doneOf := make([]float64, nm)
		for m := range holder {
			holder[m] = -1
		}
		claimed := 0
		for i := range reqs {
			if assigned[i] {
				continue
			}
			// Best and second-best completion for request i.
			bm, bd, sd := -1, math.Inf(1), math.Inf(1)
			row := table[i*nm : (i+1)*nm]
			for m := 0; m < nm; m++ {
				done := a[m] + row[m]
				switch {
				case done < bd:
					sd = bd
					bd = done
					bm = m
				case done < sd:
					sd = done
				}
			}
			suffer := sd - bd
			if math.IsInf(sd, 1) {
				// Single-machine instance: sufferage is undefined;
				// treat as zero so first-come wins.
				suffer = 0
			}
			if holder[bm] == -1 {
				holder[bm] = i
				sufferOf[bm] = suffer
				doneOf[bm] = bd
				claimed++
			} else if suffer > sufferOf[bm] {
				// Evict the smaller sufferer; it waits for the next
				// iteration.
				holder[bm] = i
				sufferOf[bm] = suffer
				doneOf[bm] = bd
			}
		}
		if claimed == 0 {
			return nil, fmt.Errorf("sched: Sufferage made no progress with %d tasks left", left)
		}
		for m := 0; m < nm; m++ {
			i := holder[m]
			if i == -1 {
				continue
			}
			assigned[i] = true
			left--
			out = append(out, Assignment{
				Req:                reqs[i],
				Machine:            m,
				DecisionCompletion: doneOf[m],
			})
			a[m] = doneOf[m]
		}
	}
	return out, nil
}
