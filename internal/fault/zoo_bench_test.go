package fault

import (
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
)

// BenchmarkTrustzooRunZoo measures one full reputation-study replication
// (200 rounds, 10 resources, audits on) per registered model and
// adversary scenario.
func BenchmarkTrustzooRunZoo(b *testing.B) {
	for _, sc := range ZooScenarios() {
		for _, m := range trust.ModelNames() {
			b.Run(string(sc)+"/"+m, func(b *testing.B) {
				cfg := ZooConfig{Model: m, Scenario: sc}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunZoo(cfg, rng.New(uint64(i+1))); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
