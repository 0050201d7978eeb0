// Package modelcount_test pins what a model-driven simulator run costs in
// trust-model work.  It lives apart from package sim because it registers
// counting wrappers in the process-wide model registry, and every test in
// the binary that lists the registered models would otherwise see them.
package modelcount_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/sim"
	"gridtrust/internal/trust"
	"gridtrust/internal/workload"
)

// countingModel wraps a registered model and counts its TrustOf calls,
// the form the simulator's model view asks by.
type countingModel struct {
	trust.Model
	calls int
}

func (m *countingModel) TrustOf(x, y trust.Ent, c trust.Ctx, now float64) (float64, error) {
	m.calls++
	return m.Model.TrustOf(x, y, c, now)
}

// rivals are the models the benchmark's model-driven leg runs.
var rivals = []string{"purge", "frtrust", "bawa"}

// counted holds the most recent countingModel built under each
// "count-<model>" name; a run builds exactly one.
var (
	countedMu sync.Mutex
	counted   = map[string]*countingModel{}
)

func init() {
	for _, name := range rivals {
		trust.RegisterModel(trust.ModelInfo{
			Name:        "count-" + name,
			Description: name + " with its Trust calls counted",
			New: func(cfg trust.Config) (trust.Model, error) {
				inner, err := trust.NewModel(name, cfg)
				if err != nil {
					return nil, err
				}
				m := &countingModel{Model: inner}
				countedMu.Lock()
				counted["count-"+name] = m
				countedMu.Unlock()
				return m, nil
			},
		})
	}
}

// legScenario is the benchmark's model-driven leg: MCT, trust-aware, 2048
// tasks on 64 machines, four client and four resource domains, the
// paper's arrival rate per machine.
func legScenario(model string) sim.Scenario {
	sc := sim.PaperScenario("mct", 2048, workload.Inconsistent)
	sc.Machines = 64
	sc.ArrivalRate = 0.04 * 64 / 5
	sc.NumCDs, sc.NumRDs = 4, 4
	sc.TrustModel = model
	return sc
}

// hashResult writes every field of res, in the order internal/sim's
// golden digests use.
func hashResult(h hash.Hash, res *sim.RunResult) {
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	floats := func(fs ...float64) {
		for _, f := range fs {
			put(math.Float64bits(f))
		}
	}
	h.Write([]byte(res.Policy))
	floats(res.AvgCompletionTime, res.Makespan, res.MeanUtilization, res.MeanTrustCost,
		res.P50Completion, res.P95Completion, res.DeadlineMissRate, res.WastedWork, res.TrustTableError)
	put(uint64(res.Assigned), uint64(res.DeadlineMisses), uint64(res.Failures), uint64(res.Requeues))
	floats(res.Completions.Values()...)
	floats(res.BusyTime...)
}

// TestTrustLegs pins, for each rival model on the benchmark leg's shape,
// every bit of the RunResult and the number of model Trust calls the run
// makes.  The digests were recorded at commit bc8376a, whose view asked
// the model again after every completion (13 480 to 13 632 calls a leg);
// the counts are the view that re-asks only what a completion changed.
func TestTrustLegs(t *testing.T) {
	type pin struct {
		digest string
		calls  int
	}
	want := map[string]pin{
		"purge/seed1":   {"5b1b6211ce1d200d", 6568},
		"frtrust/seed1": {"36c14185155c8005", 6575},
		"bawa/seed1":    {"2c78290443fe8500", 6613},
		"purge/seed7":   {"f6c428e9b5a18ec2", 6605},
		"frtrust/seed7": {"db6a047aa2a099d5", 6539},
		"bawa/seed7":    {"05a16339707ed1d8", 6608},
	}
	aware, err := sched.TrustAware(sched.DefaultTCWeight)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7} {
		w, err := workload.NewWorkload(rng.New(seed), legScenario("").WorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range rivals {
			res, err := sim.Run(legScenario("count-"+model), w, aware)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			hashResult(h, res)
			got := pin{fmt.Sprintf("%016x", h.Sum64()), counted["count-"+model].calls}
			name := fmt.Sprintf("%s/seed%d", model, seed)
			if got != want[name] {
				t.Errorf("%s: digest %s with %d Trust calls, pinned %s with %d", name, got.digest, got.calls, want[name].digest, want[name].calls)
			}
		}
	}
}
