package sched

import (
	"fmt"
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

// kernelGrids are the benchmarked batch shapes.
var kernelGrids = []struct{ tasks, machines int }{
	{32, 8},
	{128, 32},
	{512, 64},
	{1024, 128},
	{512, 1024}, // sim_paper's batch legs
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
		c, reqs, avail := benchInstance(g.tasks, g.machines)
		for _, bp := range benchPolicies {
			b.Run(fmt.Sprintf("%dx%d/%s", g.tasks, g.machines, bp.label), func(b *testing.B) {
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
