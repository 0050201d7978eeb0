package trust

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"gridtrust/internal/rng"
)

// TestModelRegistry checks the registry surface: sorted listings, the
// default resolution of the empty name, and rejection of unknown names.
func TestModelRegistry(t *testing.T) {
	names := ModelNames()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("ModelNames not sorted: %v", names)
	}
	for _, want := range []string{"bawa", "frtrust", DefaultModel, "purge"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("model %q missing from registry: %v", want, names)
		}
	}
	if !KnownModel("") || !KnownModel(DefaultModel) {
		t.Fatal("empty and default model names must be known")
	}
	if KnownModel("no-such-model") {
		t.Fatal("unknown model reported known")
	}
	m, err := NewModel("", Config{Alpha: 0.5, Beta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if m.ModelName() != DefaultModel {
		t.Fatalf("empty name resolved to %q, want %q", m.ModelName(), DefaultModel)
	}
	if _, ok := m.(*Engine); !ok {
		t.Fatalf("default model is %T, want *Engine", m)
	}
	if _, err := NewModel("no-such-model", Config{Alpha: 0.5, Beta: 0.5}); err == nil {
		t.Fatal("unknown model constructed without error")
	}
	for _, info := range Models() {
		if info.Description == "" {
			t.Fatalf("model %q has no description for -list output", info.Name)
		}
	}
}

// TestParamHashDistinguishesModels checks the snapshot pin actually pins:
// same inputs hash equal, different model names or parameters hash apart.
func TestParamHashDistinguishesModels(t *testing.T) {
	cfg := Config{Alpha: 0.5, Beta: 0.5}
	hashes := map[string]string{}
	for _, name := range ModelNames() {
		m, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := ParamHash(m.ModelName(), m.ModelParams())
		if h != ParamHash(m.ModelName(), m.ModelParams()) {
			t.Fatalf("%s: ParamHash not stable", name)
		}
		if prev, dup := hashes[h]; dup {
			t.Fatalf("models %q and %q share param hash %s", prev, name, h)
		}
		hashes[h] = name
	}
	a, err := NewModel(DefaultModel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewModel(DefaultModel, Config{Alpha: 0.3, Beta: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if ParamHash(a.ModelName(), a.ModelParams()) == ParamHash(b.ModelName(), b.ModelParams()) {
		t.Fatal("different configurations share a param hash")
	}
}

// mutateModel drives a fixed mutation script covering every state kind a
// snapshot must carry: relationships, tallies, recommender factors and
// alliances.
func mutateModel(t *testing.T, m Model) {
	t.Helper()
	const c = Context("compute")
	ents := []EntityID{"a", "b", "c", "d"}
	now := 0.0
	for round := 0; round < 12; round++ {
		for i, x := range ents {
			y := ents[(i+1)%len(ents)]
			out := 1 + float64((round+i)%6)
			if _, err := m.Observe(x, y, c, out, now); err != nil {
				t.Fatal(err)
			}
			now++
		}
	}
	if err := m.(engineModel).SetDirect("a", "c", c, 2.5, now); err != nil {
		t.Fatal(err)
	}
	if err := m.SetRecommenderFactor("b", "c", 0.4); err != nil {
		t.Fatal(err)
	}
	m.(engineModel).DeclareAlliance("a", "d")
}

// TestModelSnapshotRoundTrip checks, per registered model, that a fresh
// instance fed Import(Export()) reproduces bit-identical Trust values and
// re-exports an identical snapshot.
func TestModelSnapshotRoundTrip(t *testing.T) {
	const c = Context("compute")
	ents := []EntityID{"a", "b", "c", "d"}
	for _, name := range ModelNames() {
		cfg := Config{Alpha: 0.4, Beta: 0.6, InitialScore: 3}
		m, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mutateModel(t, m)
		snap := m.Export()
		if snap.Model != name {
			t.Fatalf("%s: snapshot stamped %q", name, snap.Model)
		}
		if want := ParamHash(name, m.ModelParams()); snap.ParamHash != want {
			t.Fatalf("%s: snapshot param hash %s, want %s", name, snap.ParamHash, want)
		}
		fresh, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.Import(snap); err != nil {
			t.Fatalf("%s: import: %v", name, err)
		}
		for _, x := range ents {
			for _, y := range ents {
				if x == y {
					continue
				}
				want, err := m.Trust(x, y, c, 60)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fresh.Trust(x, y, c, 60)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("%s: Trust(%s,%s) diverges after round-trip: %v vs %v", name, x, y, want, got)
				}
			}
		}
		if !reflect.DeepEqual(fresh.Export(), snap) {
			t.Fatalf("%s: re-export diverges from imported snapshot", name)
		}
	}
}

// TestModelMismatchTyped checks every cross-model import is refused with
// the typed sentinel: errors.Is matches ErrModelMismatch and errors.As
// recovers the names involved.
func TestModelMismatchTyped(t *testing.T) {
	cfg := Config{Alpha: 0.5, Beta: 0.5}
	for _, from := range ModelNames() {
		src, err := NewModel(from, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Observe("a", "b", "compute", 4, 0); err != nil {
			t.Fatal(err)
		}
		snap := src.Export()
		for _, to := range ModelNames() {
			dst, err := NewModel(to, cfg)
			if err != nil {
				t.Fatal(err)
			}
			err = dst.Import(snap)
			if to == from {
				if err != nil {
					t.Fatalf("%s: same-model import refused: %v", to, err)
				}
				continue
			}
			if err == nil {
				t.Fatalf("%s accepted a %s snapshot", to, from)
			}
			if !errors.Is(err, ErrModelMismatch) {
				t.Fatalf("%s←%s: error %v does not match ErrModelMismatch", to, from, err)
			}
			var mm *ModelMismatchError
			if !errors.As(err, &mm) {
				t.Fatalf("%s←%s: error %v is not a *ModelMismatchError", to, from, err)
			}
			if mm.Want != to || mm.Got != from {
				t.Fatalf("%s←%s: mismatch names want=%q got=%q", to, from, mm.Want, mm.Got)
			}
		}
	}
}

// TestModelAcceptsUnstampedSnapshot checks backward compatibility: a
// snapshot predating the zoo (no model stamp) imports into every model.
func TestModelAcceptsUnstampedSnapshot(t *testing.T) {
	cfg := Config{Alpha: 0.5, Beta: 0.5}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Observe("a", "b", "compute", 5, 0); err != nil {
		t.Fatal(err)
	}
	snap := eng.Export()
	snap.Model, snap.ParamHash = "", ""
	for _, name := range ModelNames() {
		m, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Import(snap); err != nil {
			t.Fatalf("%s refused an unstamped snapshot: %v", name, err)
		}
	}
}

// TestModelConcurrentDeterminism hammers each model from parallel
// goroutines working disjoint relationships, then checks the final scores
// are bit-identical to a sequential replay — concurrency must affect
// throughput, never results.  Under -race this also proves the locking.
func TestModelConcurrentDeterminism(t *testing.T) {
	const (
		workers = 4
		steps   = 150
		c       = Context("compute")
	)
	for _, name := range ModelNames() {
		cfg := Config{Alpha: 0.5, Beta: 0.5, InitialScore: 3.5}
		par, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := EntityID(fmt.Sprintf("w:%d", g))
				y := EntityID(fmt.Sprintf("r:%d", g))
				for i := 0; i < steps; i++ {
					if _, err := par.Observe(x, y, c, 1+float64(i%6), float64(i)); err != nil {
						t.Errorf("%s: observe: %v", name, err)
						return
					}
					v, err := par.Trust(x, y, c, float64(i))
					if err != nil || v < MinScore || v > MaxScore {
						t.Errorf("%s: trust %v (%v)", name, v, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		seq, err := NewModel(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < workers; g++ {
			x := EntityID(fmt.Sprintf("w:%d", g))
			y := EntityID(fmt.Sprintf("r:%d", g))
			for i := 0; i < steps; i++ {
				if _, err := seq.Observe(x, y, c, 1+float64(i%6), float64(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for g := 0; g < workers; g++ {
			x := EntityID(fmt.Sprintf("w:%d", g))
			y := EntityID(fmt.Sprintf("r:%d", g))
			want, err := seq.Trust(x, y, c, steps)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Trust(x, y, c, steps)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("%s: concurrent run diverges from sequential for %s→%s: %v vs %v", name, x, y, want, got)
			}
		}
	}
}

// TestModelDeterministicAcrossInstances replays one random program into
// two instances of each model and requires bit-identical trust readings —
// the per-model determinism contract the sim kernels rely on.
func TestModelDeterministicAcrossInstances(t *testing.T) {
	for _, name := range ModelNames() {
		cfg := Config{Alpha: 0.3, Beta: 0.7, InitialScore: 3.5}
		ops := randomTrustProgram(rng.New(4242), 300)
		run := func() []float64 {
			m, err := NewModel(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			now := 0.0
			var out []float64
			for _, o := range ops {
				now += o.dt
				x := equivEntities[o.x%len(equivEntities)]
				y := equivEntities[o.y%len(equivEntities)]
				c := equivContexts[o.c%len(equivContexts)]
				switch o.op % topCount {
				case topObserve:
					if _, err := m.Observe(x, y, c, o.val, now); err != nil {
						t.Fatal(err)
					}
				default:
					v, err := m.Trust(x, y, c, now)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, v)
				}
			}
			return out
		}
		a, b := run(), run()
		if len(a) != len(b) {
			t.Fatalf("%s: runs produced %d vs %d readings", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: reading %d diverges: %v vs %v", name, i, a[i], b[i])
			}
		}
	}
}

// TestMisusedHandlesAreErrors: under every registered model, a handle the
// model did not mint — the zero value, a negative or never-minted index,
// or another model's context whose index holds a different name here —
// makes TrustOf and ObserveOf return ErrHandle, never panic, and change
// nothing.
func TestMisusedHandlesAreErrors(t *testing.T) {
	for _, name := range ModelNames() {
		t.Run(name, func(t *testing.T) {
			m := newEngineModel(t, name, defaultCfg())
			x, y, c := m.Entity("x"), m.Entity("y"), m.Context("c")
			other := newEngineModel(t, name, defaultCfg())
			aliased := other.Context("d") // index 0, as m's "c"
			for _, h := range []struct {
				what string
				x, y Ent
				c    Ctx
			}{
				{"zero asker", Ent{}, y, c},
				{"zero subject", x, Ent{}, c},
				{"zero context", x, y, Ctx{}},
				{"negative asker", Ent{-1}, y, c},
				{"never-minted subject", x, Ent{3}, c},
				{"negative context", x, y, Ctx{-2, "c"}},
				{"never-minted context", x, y, Ctx{2, "c"}},
				{"another model's context", x, y, aliased},
			} {
				if _, err := m.ObserveOf(h.x, h.y, h.c, 4, 1); !errors.Is(err, ErrHandle) {
					t.Errorf("ObserveOf with a %s: %v, want ErrHandle", h.what, err)
				}
				if _, err := m.TrustOf(h.x, h.y, h.c, 1); !errors.Is(err, ErrHandle) {
					t.Errorf("TrustOf with a %s: %v, want ErrHandle", h.what, err)
				}
			}
			if n := m.Relationships(); n != 0 {
				t.Fatalf("misused handles installed %d relationships", n)
			}
			if _, err := m.ObserveOf(x, y, c, 4, 1); err != nil {
				t.Fatal(err)
			}
			if g, err := m.TrustOf(x, y, c, 1); err != nil || !(g >= MinScore && g <= MaxScore) {
				t.Fatalf("TrustOf on minted handles = %v, %v", g, err)
			}
		})
	}
}
