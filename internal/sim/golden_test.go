package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

const goldenDigestFile = "testdata/golden_digests.json"

// goldenConfig is one cell of the digest grid; every cell runs on three
// seeds and folds them into one digest.
type goldenConfig struct {
	heuristic string
	aware     bool
	model     string // "" = the workload's static trust table
	adversary float64
	churn     bool
}

func (c goldenConfig) name() string {
	policy, model, churn := "unaware", "table", "steady"
	if c.aware {
		policy = "aware"
	}
	if c.model != "" {
		model = c.model
	}
	if c.churn {
		churn = "churn"
	}
	return fmt.Sprintf("%s/%s/%s/adv%g/%s", c.heuristic, policy, model, c.adversary, churn)
}

func goldenGrid() []goldenConfig {
	var grid []goldenConfig
	for _, h := range []string{"mct", "met", "olb", "kpb", "minmin", "sufferage"} {
		for _, aware := range []bool{true, false} {
			for _, model := range []string{"", "purge", "frtrust", "bawa"} {
				for _, adv := range []float64{0, 0.5} {
					for _, churn := range []bool{false, true} {
						grid = append(grid, goldenConfig{h, aware, model, adv, churn})
					}
				}
			}
		}
	}
	return grid
}

// goldenSeeds are the workload seeds each cell runs; the fault plan is
// seeded with the same value.
var goldenSeeds = []uint64{1, 2, 3}

// scenario sizes the cell: seven machines over three resource domains, so
// the domains own 3, 2 and 2 machines and no per-domain stride divides
// the machine count.
func (c goldenConfig) scenario(seed uint64) Scenario {
	sc := PaperScenario(c.heuristic, 60, workload.Inconsistent)
	if _, err := sched.ImmediateByName(c.heuristic); err == nil {
		sc.Mode = Immediate
	}
	sc.Machines = 7
	sc.ArrivalRate = 0.04 * 7 / 5
	sc.NumCDs, sc.NumRDs = 3, 3
	sc.TrustModel = c.model
	sc.Fault = fault.Plan{AdversaryFraction: c.adversary, Seed: seed}
	if c.churn {
		sc.Fault.MTBF, sc.Fault.MTTR = 1000, 100
	}
	return sc
}

// digest runs the cell on every seed and hashes the bits of the result
// floats the paper's tables and the fault studies report.
func (c goldenConfig) digest(t *testing.T) string {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, seed := range goldenSeeds {
		sc := c.scenario(seed)
		w := mustWorkload(t, sc, seed)
		aware, unaware, err := sc.policies()
		if err != nil {
			t.Fatal(err)
		}
		policy := unaware
		if c.aware {
			policy = aware
		}
		res, err := Run(sc, w, policy)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name(), seed, err)
		}
		for _, f := range []float64{
			res.Makespan, res.AvgCompletionTime, res.MeanUtilization,
			res.MeanTrustCost, res.TrustTableError, res.P95Completion, res.WastedWork,
		} {
			put(math.Float64bits(f))
		}
		put(uint64(res.Assigned))
		put(uint64(res.Requeues))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenDigests pins the simulator's behaviour bit for bit over
// heuristic × policy × trust model × adversary fraction × churn: every
// decision view (precomputed table, whitewashed overlay, live model), on
// the fast and the reference kernel.  A refactor that claims to preserve
// behaviour must leave testdata/golden_digests.json untouched.
//
// The file was recorded at commit 4e1832c (PR 16), before trust costs were
// factored per resource domain, by running this test there; copying this
// test and the file into a checkout of that commit and running
// `go test ./internal/sim -run TestGoldenDigests` confirms it.  After an
// intended change of behaviour, delete the file and run the test once: it
// records the current digests and fails, so a missing file never passes.
func TestGoldenDigests(t *testing.T) {
	grid := goldenGrid()
	data, err := os.ReadFile(goldenDigestFile)
	if os.IsNotExist(err) {
		got := map[string]string{}
		for _, c := range grid {
			got[c.name()] = c.digest(t)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestFile, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing: recorded %d digests from the current behaviour; review and commit it", goldenDigestFile, len(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(grid) {
		t.Errorf("golden file pins %d cells, the grid has %d", len(want), len(grid))
	}
	defer SetKernel(KernelFast)
	for _, k := range []Kernel{KernelFast, KernelReference} {
		SetKernel(k)
		for _, c := range grid {
			if got := c.digest(t); got != want[c.name()] {
				t.Errorf("%s on the %s kernel: digest %s, pinned %s", c.name(), k, got, want[c.name()])
			}
		}
	}
}
