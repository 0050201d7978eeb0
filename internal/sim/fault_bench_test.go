package sim

import (
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/workload"
)

// Fault-path overhead benchmarks.  Three
// regimes on the same Table-4 MCT workload:
//
//   - fast-path: inactive plan, the pre-fault scheduling loop (§8's
//     zero-allocation kernels) — the baseline every fault-free caller
//     still gets byte-identical.
//   - masking-no-crash: an active churn plan whose first crash lands
//     beyond the horizon, so the run pays the full fault machinery
//     (event-driven DES, per-machine queues, availability masking,
//     renewal bookkeeping) without a single failure.  This is the pure
//     masking/bookkeeping overhead.
//   - churn: MTBF 1000/MTTR 100, real crashes, cancellations and
//     requeues on top.
func BenchmarkFaultPathOverhead(b *testing.B) {
	base := PaperScenario("mct", 100, workload.Inconsistent)
	w, err := workload.NewWorkload(rng.New(2002), base.WorkloadSpec())
	if err != nil {
		b.Fatal(err)
	}
	aware, _, err := base.policies()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, plan fault.Plan) {
		sc := base
		sc.Fault = plan
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(sc, w, aware); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fast-path", func(b *testing.B) { run(b, fault.Plan{}) })
	b.Run("masking-no-crash", func(b *testing.B) {
		run(b, fault.Plan{MTBF: 1e12, MTTR: 1, Seed: 1})
	})
	b.Run("churn", func(b *testing.B) {
		run(b, fault.Plan{MTBF: 1000, MTTR: 100, Seed: 1})
	})
}
