package trust

import (
	"fmt"
	"math"
	"testing"

	"gridtrust/internal/rng"
)

// TestTrustReadsOnlyItsSubject checks the read contract on Model.Trust
// that lets a caller keep an answer per subject: Trust(x, y, c) reads only
// state about (y, c), so an Observe about (y, c) leaves every Trust about
// another subject or context bit-identical.  A model that reads beyond
// its subject fails here, not in a downstream golden.
func TestTrustReadsOnlyItsSubject(t *testing.T) {
	ents, ctxs := equivEntities, equivContexts
	for _, name := range ModelNames() {
		for ci, cfg := range equivConfigs() {
			t.Run(fmt.Sprintf("%s/config=%d", name, ci), func(t *testing.T) {
				m, err := NewModel(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				const now = 50.0
				snapshot := func() []uint64 {
					var out []uint64
					for _, a := range ents {
						for _, b := range ents {
							for _, d := range ctxs {
								v, err := m.Trust(a, b, d, now)
								if err != nil {
									t.Fatal(err)
								}
								out = append(out, math.Float64bits(v))
							}
						}
					}
					return out
				}
				src := rng.New(uint64(9100 + ci))
				before := snapshot()
				for step := 0; step < 150; step++ {
					xi, yi, di := src.Intn(len(ents)), src.Intn(len(ents)), src.Intn(len(ctxs))
					outcome := 1 + float64(src.Intn(21))/4
					if _, err := m.Observe(ents[xi], ents[yi], ctxs[di], outcome, float64(src.Intn(100))); err != nil {
						t.Fatal(err)
					}
					after := snapshot()
					k := 0
					for a := range ents {
						for b := range ents {
							for d := range ctxs {
								if (b != yi || d != di) && after[k] != before[k] {
									t.Fatalf("step %d: Observe(%s,%s,%s) moved Trust(%s,%s,%s) from %v to %v",
										step, ents[xi], ents[yi], ctxs[di], ents[a], ents[b], ctxs[d],
										math.Float64frombits(before[k]), math.Float64frombits(after[k]))
								}
								k++
							}
						}
					}
					before = after
				}
			})
		}
	}
}
