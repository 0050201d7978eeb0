package trust

import (
	"fmt"
	"testing"
)

// warmModel builds the named model under the simulator's configuration
// and feeds it a small grid shaped like the simulator's: four client
// domains observe four resource domains in three contexts, client domain
// i observing each (resource, context) i+1 times, so every (subject,
// context) has four recommenders and askers sit on both sides of purge's
// direct-history threshold.
func warmModel(tb testing.TB, name string) (m Model, cds, rds []EntityID, ctxs []Context) {
	tb.Helper()
	m, err := NewModel(name, Config{Alpha: 0.7, Beta: 0.3, InitialScore: (MinScore + MaxScore) / 2, UpdateBatch: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cds = append(cds, EntityID(fmt.Sprintf("cd:%d", i)))
		rds = append(rds, EntityID(fmt.Sprintf("rd:%d", i)))
	}
	ctxs = []Context{"0", "1-3", "2-4-0"}
	for i, x := range cds {
		for j, y := range rds {
			for k, c := range ctxs {
				for n := 0; n <= i; n++ {
					outcome := float64(1 + (i+2*j+3*k+n)%6)
					if _, err := m.Observe(x, y, c, outcome, 0); err != nil {
						tb.Fatal(err)
					}
				}
			}
		}
	}
	return m, cds, rds, ctxs
}

// BenchmarkModelTrust reads one Trust call of each registered model on a
// warmed grid, cycling through every (asker, subject, context).
func BenchmarkModelTrust(b *testing.B) {
	for _, name := range ModelNames() {
		b.Run(name, func(b *testing.B) {
			m, cds, rds, ctxs := warmModel(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x, y, c := cds[i%4], rds[(i/4)%4], ctxs[(i/16)%len(ctxs)]
				if _, err := m.Trust(x, y, c, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestModelTrustAllocs pins that Trust allocates nothing on a warmed model
// of every registered name.
func TestModelTrustAllocs(t *testing.T) {
	for _, name := range ModelNames() {
		m, cds, rds, ctxs := warmModel(t, name)
		allocs := testing.AllocsPerRun(50, func() {
			for _, x := range cds {
				for _, y := range rds {
					for _, c := range ctxs {
						if _, err := m.Trust(x, y, c, 0); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warmed Trust sweep allocates %.1f times, want 0", name, allocs)
		}
	}
}
