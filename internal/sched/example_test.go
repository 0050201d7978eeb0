package sched_test

import (
	"fmt"

	"gridtrust/internal/sched"
)

// ExampleMCT_trustAware shows the paper's central effect on a single
// decision: a fast machine with a poor trust relationship loses to a
// slower, trusted one once the expected security cost is visible.
func ExampleMCT_trustAware() {
	costs, err := sched.NewMatrixCosts(
		[][]float64{{100, 120}}, // machine 0 is faster...
		[][]int{{6, 0}},         // ...but carries the maximum trust cost
	)
	if err != nil {
		panic(err)
	}
	avail := []float64{0, 0}

	unaware, _ := sched.MCT{}.AssignOne(costs, sched.MustTrustUnaware(50), 0, avail)
	aware, _ := sched.MCT{}.AssignOne(costs, sched.MustTrustAware(15), 0, avail)

	fmt.Printf("trust-unaware picks machine %d (sees raw 100 vs 120)\n", unaware.Machine)
	fmt.Printf("trust-aware picks machine %d (sees 100·1.9=190 vs 120·1.0=120)\n", aware.Machine)
	// Output:
	// trust-unaware picks machine 0 (sees raw 100 vs 120)
	// trust-aware picks machine 1 (sees 100·1.9=190 vs 120·1.0=120)
}

// ExampleMinMin shows a batch mapping with the Min-min heuristic.
func ExampleMinMin() {
	costs, err := sched.NewMatrixCosts([][]float64{
		{2, 4},
		{3, 1},
		{5, 6},
	}, nil)
	if err != nil {
		panic(err)
	}
	schedule, err := sched.MinMin{}.AssignBatchInto(
		costs, sched.MustTrustAware(15), []int{0, 1, 2}, []float64{0, 0}, nil)
	if err != nil {
		panic(err)
	}
	for _, a := range schedule {
		fmt.Printf("task %d → machine %d (done at %.0f)\n", a.Req, a.Machine, a.DecisionCompletion)
	}
	// Output:
	// task 1 → machine 1 (done at 1)
	// task 0 → machine 0 (done at 2)
	// task 2 → machine 0 (done at 7)
}
