package sim

import (
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

// BenchmarkTrustzooModelOverhead measures the cost of driving the DES
// scheduler through each registered trust model (the modelView wrapper:
// per-finish Observe, per-decision Trust fused with the claimed table)
// against the static table-driven default path, on the Table-4 scenario.
func BenchmarkTrustzooModelOverhead(b *testing.B) {
	base := PaperScenario("mct", 100, workload.Inconsistent)
	w, err := workload.NewWorkload(rng.New(2002), base.WorkloadSpec())
	if err != nil {
		b.Fatal(err)
	}
	aware, _, err := base.policies()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, model string) {
		sc := base
		sc.TrustModel = model
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(sc, w, aware); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("static-table", func(b *testing.B) { run(b, "") })
	for _, m := range trust.ModelNames() {
		b.Run("model="+m, func(b *testing.B) { run(b, m) })
	}
}
