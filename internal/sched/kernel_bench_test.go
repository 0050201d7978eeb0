package sched

import (
	"fmt"
	"math"
	"testing"

	"gridtrust/internal/rng"
)

// Kernel benchmark suite: the incremental kernels vs the naive reference
// implementations across T×M grids from 32×8 to 512×1024, under both the
// trust-aware and trust-unaware policies.  The optimized side maps through
// AssignBatchInto with a recycled destination slice, so allocs/op reports
// the steady-state allocation contract (0).
//
// Regenerate the perf trajectory with:
//
//	go test ./internal/sched -run '^$' -bench 'Kernel' -benchmem

// kernelGrids are the benchmarked batch shapes.  A shape with slots
// prices trust per group of machines, as internal/sim's table does per
// resource domain; without, every machine is a slot of its own, which
// keeps a row past the vector kernels' four slots on the Go fill.
var kernelGrids = []struct{ tasks, machines, slots int }{
	{32, 8, 0},
	{128, 32, 0},
	{512, 64, 0},
	{1024, 128, 0},
	{512, 1024, 0},
	{512, 1024, 4}, // sim_paper's batch legs: four RDs
}

// benchPolicies pairs each policy with a short label for sub-benchmark
// names.
var benchPolicies = []struct {
	label  string
	policy Policy
}{
	{"aware", MustTrustAware(DefaultTCWeight)},
	{"unaware", MustTrustUnaware(DefaultFlatOverheadPct)},
}

// benchInstance draws a deterministic instance for a grid shape.
func benchInstance(tasks, machines int) (*MatrixCosts, []int, []float64) {
	src := rng.New(uint64(tasks)*1000003 + uint64(machines))
	exec := make([][]float64, tasks)
	tc := make([][]int, tasks)
	for i := range exec {
		exec[i] = make([]float64, machines)
		tc[i] = make([]int, machines)
		for m := range exec[i] {
			exec[i][m] = src.Uniform(1, 1000)
			tc[i][m] = src.IntRange(0, 6)
		}
	}
	c, err := NewMatrixCosts(exec, tc)
	if err != nil {
		panic(err)
	}
	reqs := make([]int, tasks)
	for i := range reqs {
		reqs[i] = i
	}
	return c, reqs, make([]float64, machines)
}

// benchKernelGrids runs fn across every grid and policy.
func benchKernelGrids(b *testing.B, fn func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64)) {
	b.Helper()
	for _, g := range kernelGrids {
		dense, reqs, avail := benchInstance(g.tasks, g.machines)
		var c Costs = dense
		name := fmt.Sprintf("%dx%d", g.tasks, g.machines)
		if g.slots > 0 {
			src := rng.New(uint64(g.slots))
			c = grouped(dense, g.slots, func(int) int { return src.Intn(g.slots) })
			name += fmt.Sprintf("x%dslots", g.slots)
		}
		for _, bp := range benchPolicies {
			b.Run(name+"/"+bp.label, func(b *testing.B) {
				fn(b, c, bp.policy, reqs, avail)
			})
		}
	}
}

func benchInto(b *testing.B, h BatchInto, c Costs, p Policy, reqs []int, avail []float64) {
	b.Helper()
	dst := make([]Assignment, 0, len(reqs))
	// Warm the kernel pool so pool misses don't count as steady state.
	if _, err := h.AssignBatchInto(c, p, reqs, avail, dst); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := h.AssignBatchInto(c, p, reqs, avail, dst)
		if err != nil {
			b.Fatal(err)
		}
		dst = out[:0]
	}
}

func BenchmarkKernelMinMin(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		benchInto(b, MinMin{}, c, p, reqs, avail)
	})
}

func BenchmarkKernelMaxMin(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		benchInto(b, MaxMin{}, c, p, reqs, avail)
	})
}

func BenchmarkKernelSufferage(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		benchInto(b, Sufferage{}, c, p, reqs, avail)
	})
}

func BenchmarkKernelDuplex(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		benchInto(b, Duplex{}, c, p, reqs, avail)
	})
}

func BenchmarkReferenceKernelMinMin(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceMinMaxMin(c, p, reqs, avail, false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReferenceKernelMaxMin(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceMinMaxMin(c, p, reqs, avail, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkReferenceKernelSufferage(b *testing.B) {
	benchKernelGrids(b, func(b *testing.B, c Costs, p Policy, reqs []int, avail []float64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceSufferage(c, p, reqs, avail); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecisionScan times one row of each decision kernel, the MCT
// scan and the batch fill (row and pair), under each form, on the vector
// kernel and on the portable body, at 16, 64 and 1 024 machines over
// four slots (sim_paper's MCT and batch legs are the 1 024-machine
// rows, sim_trust's MCT the 64-machine ones).  Half the machines are
// busy past now, so the clamp goes both ways.  The vector rows are
// skipped on a CPU without AVX2.  Results go to package-level sinks so
// no call can be dropped as dead.
func BenchmarkDecisionScan(b *testing.B) {
	for _, n := range []int{16, 64, 1024} {
		src := rng.New(uint64(n))
		eec, ft, dst := make([]float64, n), make([]float64, n), make([]float64, n)
		idx := make([]int32, n)
		for m := range eec {
			eec[m] = src.Uniform(1, 1000)
			idx[m] = int32(src.Intn(4))
			if src.Bool(0.5) {
				ft[m] = src.Uniform(500, 1500)
			}
		}
		now := 500.0
		factors := map[string][]float64{"zero": nil, "linear": {0, 15, 45, 90}}
		for _, form := range []string{"zero", "linear"} {
			f := factors[form]
			for _, body := range []string{"vector", "portable"} {
				vector := body == "vector"
				b.Run(fmt.Sprintf("scan/%s/%s/%d", form, body, n), func(b *testing.B) {
					if vector && !hasAVX2 {
						b.Skip("no AVX2")
					}
					for i := 0; i < b.N; i++ {
						if vector {
							sinkMachine, sinkDone = scanVector(eec, f, idx, ft, now)
						} else {
							sinkMachine, sinkDone = scanPortable(eec, f, idx, ft, now, 0, -1, math.Inf(1))
						}
					}
				})
				b.Run(fmt.Sprintf("fill/%s/%s/%d", form, body, n), func(b *testing.B) {
					if vector && !hasAVX2 {
						b.Skip("no AVX2")
					}
					for i := 0; i < b.N; i++ {
						if vector {
							sinkPair = fillVector(dst, eec, f, idx, ft)
						} else {
							sinkPair = fillPortable(dst, eec, f, idx, ft, 0, noPair)
						}
					}
				})
			}
		}
	}
}

// The sinks BenchmarkDecisionScan writes its results to.
var (
	sinkMachine int
	sinkDone    float64
	sinkPair    pair
)
