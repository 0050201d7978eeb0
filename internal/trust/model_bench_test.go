package trust

import (
	"fmt"
	"strings"
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

// simShapedModel builds the named model under the simulator's
// configuration in the state a sim_trust leg works on: four client
// domains observe four resource domains in the 205 ordered ToAs of up to
// four of the five built-in activities (rendered as the simulator renders
// a ToA), one to three times each, skipping one (CD, RD, context) in
// sixteen — about 3 000 relationships, so every subject has some 800
// records across its contexts and four (sometimes three) in each.
func simShapedModel(tb testing.TB, name string) (m Model, cds, rds []EntityID, ctxs []Context) {
	tb.Helper()
	m, err := NewModel(name, Config{Alpha: 0.7, Beta: 0.3, InitialScore: (MinScore + MaxScore) / 2, UpdateBatch: 1})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cds = append(cds, EntityID(fmt.Sprintf("cd:%d", i)))
		rds = append(rds, EntityID(fmt.Sprintf("rd:%d", i)))
	}
	acts := []string{"compute", "storage", "print", "display", "network"}
	var extend func(prefix []string, used int)
	extend = func(prefix []string, used int) {
		if len(prefix) > 0 {
			ctxs = append(ctxs, Context("{"+strings.Join(prefix, "+")+"}"))
		}
		if len(prefix) == 4 {
			return
		}
		for a := range acts {
			if used&(1<<a) == 0 {
				extend(append(prefix, acts[a]), used|1<<a)
			}
		}
	}
	extend(nil, 0)
	for k, c := range ctxs {
		for i, x := range cds {
			for j, y := range rds {
				if (7*i+5*j+k)%16 == 0 {
					continue
				}
				for n := 0; n <= (i+j+k)%3; n++ {
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

// minted mints a handle for each name.
func minted(m Model, cds, rds []EntityID, ctxs []Context) (hcd, hrd []Ent, hctx []Ctx) {
	for i := range cds {
		hcd, hrd = append(hcd, m.Entity(cds[i])), append(hrd, m.Entity(rds[i]))
	}
	for _, c := range ctxs {
		hctx = append(hctx, m.Context(c))
	}
	return hcd, hrd, hctx
}

// BenchmarkModelTrust reads one Trust call of each registered model,
// cycling through every (asker, subject, context): on a small warmed grid
// (three contexts), and on the state a sim_trust leg works on, by handle
// under sim/ as the simulator asks, by name under sim-byname/.
func BenchmarkModelTrust(b *testing.B) {
	type shape func(testing.TB, string) (Model, []EntityID, []EntityID, []Context)
	bench := func(b *testing.B, warm shape, name string, byName bool) {
		m, cds, rds, ctxs := warm(b, name)
		hcd, hrd, hctx := minted(m, cds, rds, ctxs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x, y, c := i%4, (i/4)%4, (i/16)%len(ctxs)
			var err error
			if byName {
				_, err = m.Trust(cds[x], rds[y], ctxs[c], 0)
			} else {
				_, err = m.TrustOf(hcd[x], hrd[y], hctx[c], 0)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, name := range ModelNames() {
		b.Run(name, func(b *testing.B) {
			bench(b, warmModel, name, true)
		})
	}
	for _, form := range []string{"sim", "sim-byname"} {
		b.Run(form, func(b *testing.B) {
			for _, name := range ModelNames() {
				b.Run(name, func(b *testing.B) {
					bench(b, simShapedModel, name, form == "sim-byname")
				})
			}
		})
	}
}

// BenchmarkModelObserve is BenchmarkModelTrust/sim's twin for Observe:
// one observation per call on the sim_trust-shaped state, cycling through
// every (observer, subject, context) as the leg's completions do, by
// handle under sim/ and by name under sim-byname/.
func BenchmarkModelObserve(b *testing.B) {
	for _, form := range []string{"sim", "sim-byname"} {
		for _, name := range ModelNames() {
			b.Run(form+"/"+name, func(b *testing.B) {
				m, cds, rds, ctxs := simShapedModel(b, name)
				hcd, hrd, hctx := minted(m, cds, rds, ctxs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x, y, c, outcome := i%4, (i/4)%4, (i/16)%len(ctxs), float64(1+i%6)
					var err error
					if form == "sim-byname" {
						_, err = m.Observe(cds[x], rds[y], ctxs[c], outcome, 0)
					} else {
						_, err = m.ObserveOf(hcd[x], hrd[y], hctx[c], outcome, 0)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestModelTrustAllocs pins that Trust and TrustOf allocate nothing on a
// warmed model of every registered name.
func TestModelTrustAllocs(t *testing.T) {
	for _, name := range ModelNames() {
		m, cds, rds, ctxs := warmModel(t, name)
		hcd, hrd, hctx := minted(m, cds, rds, ctxs)
		allocs := testing.AllocsPerRun(50, func() {
			for i := range cds {
				for j := range rds {
					for k := range ctxs {
						if _, err := m.Trust(cds[i], rds[j], ctxs[k], 0); err != nil {
							t.Fatal(err)
						}
						if _, err := m.TrustOf(hcd[i], hrd[j], hctx[k], 0); err != nil {
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
