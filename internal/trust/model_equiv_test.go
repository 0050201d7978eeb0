package trust

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"gridtrust/internal/rng"
)

// This file proves every registered rival model bit-identical to a naive
// map-based reference implementation, the same way engine_equiv_test.go
// proves the indexed engine against refEngine.  Each reference mirrors
// its model's exact float operation order (claims walked in recommender
// string order, fixed-order fuzzy arrays), so divergence of a single ULP
// fails the run.  FuzzModelEquivalence feeds the same harness with
// fuzzer-derived programs.

// obsKey and loadKey key the reference's tallies by name.
type obsKey struct {
	from EntityID
	to   EntityID
	ctx  Context
}

type loadKey struct {
	to  EntityID
	ctx Context
}

// refZooModel is the naive reference for the zoo models: a refEngine for
// relationship state plus plain maps for the observation tallies.
type refZooModel struct {
	name   string
	params string
	eng    *refEngine
	obs    map[obsKey]obsVal
	load   map[loadKey]int32
}

func newRefZooModel(name, params string, cfg Config) (*refZooModel, error) {
	eng, err := newRefEngine(cfg)
	if err != nil {
		return nil, err
	}
	return &refZooModel{
		name:   name,
		params: params,
		eng:    eng,
		obs:    make(map[obsKey]obsVal),
		load:   make(map[loadKey]int32),
	}, nil
}

func (m *refZooModel) Observe(x, y EntityID, c Context, outcome, now float64) (bool, error) {
	changed, err := m.eng.Observe(x, y, c, outcome, now)
	if err != nil {
		return changed, err
	}
	v := m.obs[obsKey{x, y, c}]
	v.n++
	if outcome >= posThreshold {
		v.pos++
	}
	m.obs[obsKey{x, y, c}] = v
	m.load[loadKey{y, c}]++
	return changed, nil
}

// claimsAbout mirrors Engine.claims on the map store: every incoming
// relationship to y in c except from x and y itself, decayed and paired
// with the recommender factor, in recommender string order.
func (m *refZooModel) claimsAbout(x, y EntityID, c Context, now float64) ([]claim, error) {
	var keys []refRelKey
	for k := range m.eng.rels {
		if k.to != y || k.ctx != c || k.from == x || k.from == y {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].from < keys[j].from })
	out := make([]claim, 0, len(keys))
	for _, k := range keys {
		rel := m.eng.rels[k]
		d := m.eng.cfg.Decay(now-rel.lastTx, c)
		if err := validateDecayOutput(d); err != nil {
			return nil, err
		}
		out = append(out, claim{
			value:  MinScore + (rel.score-MinScore)*d,
			factor: m.eng.recommenderFactor(k.from, y),
		})
	}
	return out, nil
}

func (m *refZooModel) Trust(x, y EntityID, c Context, now float64) (float64, error) {
	switch m.name {
	case "purge":
		return m.purgeTrust(x, y, c, now)
	case "frtrust":
		return m.fuzzyTrust(x, y, c, now)
	case "bawa":
		return m.reliabilityTrust(x, y, c, now)
	default:
		return m.eng.Trust(x, y, c, now)
	}
}

func (m *refZooModel) purgeTrust(x, y EntityID, c Context, now float64) (float64, error) {
	theta, err := m.eng.Direct(x, y, c, now)
	if err != nil {
		return 0, err
	}
	claims, err := m.claimsAbout(x, y, c, now)
	if err != nil {
		return 0, err
	}
	ref := theta
	if m.obs[obsKey{x, y, c}].n < purgeDirectMin && len(claims) > 0 {
		vals := make([]float64, len(claims))
		for i, cl := range claims {
			vals[i] = cl.value
		}
		sort.Float64s(vals)
		if len(vals)%2 == 1 {
			ref = vals[len(vals)/2]
		} else {
			ref = (vals[len(vals)/2-1] + vals[len(vals)/2]) / 2
		}
	}
	var sum float64
	kept := 0
	for _, cl := range claims {
		if math.Abs(cl.value-ref) > purgeDeviation {
			continue
		}
		sum += MinScore + (cl.value-MinScore)*cl.factor
		kept++
	}
	omega := ref
	if kept > 0 {
		omega = sum / float64(kept)
	}
	return clampScore(m.eng.cfg.Alpha*theta + m.eng.cfg.Beta*omega), nil
}

func (m *refZooModel) fuzzyTrust(x, y EntityID, c Context, now float64) (float64, error) {
	theta, err := m.eng.Direct(x, y, c, now)
	if err != nil {
		return 0, err
	}
	claims, err := m.claimsAbout(x, y, c, now)
	if err != nil {
		return 0, err
	}
	omega := theta
	if len(claims) > 0 {
		var sum float64
		for _, cl := range claims {
			sum += MinScore + (cl.value-MinScore)*cl.factor
		}
		omega = sum / float64(len(claims))
	}
	n := m.obs[obsKey{x, y, c}].n
	h := float64(n) / (float64(n) + fuzzyHistorySat)
	evidence := h*score01(theta) + (1-h)*score01(omega)
	ny := m.load[loadKey{y, c}]
	load := float64(ny) / (float64(ny) + fuzzyLoadSat)

	// Naive Mamdani stage: same partitions, rules and centroids as
	// defuzzTrust, written out independently in the same fixed order.
	tri := func(v float64) [3]float64 {
		return [3]float64{
			math.Max(0, 1-2*v),
			math.Max(0, 1-2*math.Abs(v-0.5)),
			math.Max(0, 2*v-1),
		}
	}
	me, ml := tri(evidence), tri(load)
	rules := [3][3]int{{0, 0, 0}, {1, 1, 0}, {2, 2, 1}}
	centroids := [3]float64{1.0 / 6, 0.5, 5.0 / 6}
	var num, den float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			w := math.Min(me[i], ml[j])
			num += w * centroids[rules[i][j]]
			den += w
		}
	}
	return clampScore(MinScore + (MaxScore-MinScore)*(num/den)), nil
}

func (m *refZooModel) reliabilityTrust(x, y EntityID, c Context, now float64) (float64, error) {
	theta, err := m.eng.Direct(x, y, c, now)
	if err != nil {
		return 0, err
	}
	v := m.obs[obsKey{x, y, c}]
	rho := (float64(v.pos) + 1) / (float64(v.n) + 2)
	direct := MinScore + (theta-MinScore)*rho
	claims, err := m.claimsAbout(x, y, c, now)
	if err != nil {
		return 0, err
	}
	omega := m.eng.cfg.InitialScore
	var wsum, vsum float64
	for _, cl := range claims {
		wsum += cl.factor
		vsum += cl.factor * cl.value
	}
	if wsum > 0 {
		omega = vsum / wsum
	}
	h := float64(v.n) / (float64(v.n) + reliabilityHistorySat)
	return clampScore(h*direct + (1-h)*omega), nil
}

// Export mirrors zooBase.Export: the engine snapshot stamped with the
// model identity plus the sorted observation tallies.
func (m *refZooModel) Export() *Snapshot {
	snap := m.eng.Export()
	if m.name == DefaultModel {
		return snap
	}
	snap.Model = m.name
	snap.ParamHash = ParamHash(m.name, m.params)
	for k, v := range m.obs {
		snap.Counts = append(snap.Counts, ObservationCount{
			From: k.from, To: k.to, Ctx: k.ctx, N: v.n, Pos: v.pos,
		})
	}
	sort.Slice(snap.Counts, func(i, j int) bool {
		a, b := snap.Counts[i], snap.Counts[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Ctx < b.Ctx
	})
	return snap
}

// runModelEquivProgram drives a registered model and its naive reference
// through the same program and fails on any observable divergence.
func runModelEquivProgram(t testing.TB, name string, cfg Config, ops []trustOp) {
	t.Helper()
	m, err := NewModel(name, cfg)
	if err != nil {
		t.Fatalf("NewModel(%q): %v", name, err)
	}
	ref, err := newRefZooModel(name, m.ModelParams(), cfg)
	if err != nil {
		t.Fatalf("newRefZooModel(%q): %v", name, err)
	}
	bits := math.Float64bits
	now := 0.0
	for i, o := range ops {
		now += o.dt
		x := equivEntities[o.x%len(equivEntities)]
		y := equivEntities[o.y%len(equivEntities)]
		z := equivEntities[o.z%len(equivEntities)]
		c := equivContexts[o.c%len(equivContexts)]
		switch o.op % topCount {
		case topObserve:
			g1, e1 := m.Observe(x, y, c, o.val, now)
			g2, e2 := ref.Observe(x, y, c, o.val, now)
			if g1 != g2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d Observe(%s,%s,%s,%g): model (%v,%v), ref (%v,%v)", name, i, x, y, c, o.val, g1, e1, g2, e2)
			}
		case topSetDirect:
			e1 := m.SetDirect(x, y, c, o.val, now)
			e2 := ref.eng.SetDirect(x, y, c, o.val, now)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d SetDirect: model %v, ref %v", name, i, e1, e2)
			}
		case topAlliance:
			m.DeclareAlliance(x, z)
			ref.eng.DeclareAlliance(x, z)
		case topRecFactor:
			e1 := m.SetRecommenderFactor(z, y, o.val/MaxScore)
			e2 := ref.eng.SetRecommenderFactor(z, y, o.val/MaxScore)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d SetRecommenderFactor: model %v, ref %v", name, i, e1, e2)
			}
		case topPrune:
			g1 := m.UnderlyingEngine().Prune(now - o.val)
			g2 := ref.eng.Prune(now - o.val)
			if g1 != g2 {
				t.Fatalf("%s op %d Prune(%g): model removed %d, ref %d", name, i, now-o.val, g1, g2)
			}
		case topQuery:
			d1, e1 := m.Direct(x, y, c, now)
			d2, e2 := ref.eng.Direct(x, y, c, now)
			if bits(d1) != bits(d2) || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d Direct(%s,%s,%s,%g): model %v (%v), ref %v (%v)", name, i, x, y, c, now, d1, e1, d2, e2)
			}
			v1, ok1, e1 := m.Recommendation(z, y, c, now)
			v2, ok2, e2 := ref.eng.Recommendation(z, y, c, now)
			if bits(v1) != bits(v2) || ok1 != ok2 || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d Recommendation(%s,%s,%s,%g): model (%v,%v,%v), ref (%v,%v,%v)", name, i, z, y, c, now, v1, ok1, e1, v2, ok2, e2)
			}
			g1, e1 := m.Trust(x, y, c, now)
			g2, e2 := ref.Trust(x, y, c, now)
			if bits(g1) != bits(g2) || (e1 == nil) != (e2 == nil) {
				t.Fatalf("%s op %d Trust(%s,%s,%s,%g): model %v (%v), ref %v (%v)", name, i, x, y, c, now, g1, e1, g2, e2)
			}
		}
		if n1, n2 := m.Relationships(), ref.eng.Relationships(); n1 != n2 {
			t.Fatalf("%s op %d: model holds %d relationships, ref %d", name, i, n1, n2)
		}
	}
	if g1, g2 := m.Entities(), ref.eng.Entities(); !reflect.DeepEqual(g1, g2) {
		t.Fatalf("%s: Entities diverge: model %v, ref %v", name, g1, g2)
	}
	if s1, s2 := m.Export(), ref.Export(); !reflect.DeepEqual(s1, s2) {
		t.Fatalf("%s: snapshots diverge:\nmodel %+v\nref   %+v", name, s1, s2)
	}
}

// TestModelEquivalence property-checks every registered model against its
// reference across every configuration class.
func TestModelEquivalence(t *testing.T) {
	for _, name := range ModelNames() {
		for ci, cfg := range equivConfigs() {
			cfg := cfg
			t.Run(fmt.Sprintf("%s/config=%d", name, ci), func(t *testing.T) {
				src := rng.New(uint64(8800 + ci))
				for trial := 0; trial < 25; trial++ {
					runModelEquivProgram(t, name, cfg, randomTrustProgram(src, 1+src.Intn(100)))
				}
			})
		}
	}
}

// FuzzModelEquivalence cross-checks every registered model against its
// reference on fuzzer-derived programs: each 7-byte chunk decodes to one
// operation (the FuzzEngineEquivalence encoding).
func FuzzModelEquivalence(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 0, 12, 4, 5, 1, 0, 2, 1, 0, 8, 0})
	f.Add(uint8(2), []byte{5, 0, 3, 1, 20, 2, 0, 1, 5, 4, 0, 2, 16, 6, 5, 1, 2, 3, 0, 9, 1})
	f.Fuzz(func(t *testing.T, cfgPick uint8, data []byte) {
		cfgs := equivConfigs()
		cfg := cfgs[int(cfgPick)%len(cfgs)]
		var ops []trustOp
		for i := 0; i+7 <= len(data) && len(ops) < 200; i += 7 {
			ops = append(ops, trustOp{
				op:  int(data[i]),
				x:   int(data[i+1]),
				y:   int(data[i+2]),
				z:   int(data[i+3]),
				c:   int(data[i+4]),
				val: 1 + float64(data[i+5]%21)/4,
				dt:  float64(data[i+6]%64) / 2,
			})
		}
		if len(ops) == 0 {
			t.Skip()
		}
		for _, name := range ModelNames() {
			runModelEquivProgram(t, name, cfg, ops)
		}
	})
}
