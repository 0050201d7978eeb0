package sim

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"gridtrust/internal/fault"
	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/trace"
	"gridtrust/internal/workload"
)

const (
	goldenDigestFile = "testdata/golden_digests.json"
	goldenTraceFile  = "testdata/golden_traces.json"
)

// goldenConfig is one cell of the digest grid; every cell runs on three
// seeds and folds them into one digest.
type goldenConfig struct {
	heuristic string
	aware     bool
	model     string // "" = the workload's static trust table
	adversary float64
	churn     bool
	slack     float64 // Scenario.DeadlineSlack; 0 = no deadlines
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
	name := fmt.Sprintf("%s/%s/%s/adv%g/%s", c.heuristic, policy, model, c.adversary, churn)
	if c.slack != 0 {
		name += fmt.Sprintf("/slack%g", c.slack)
	}
	return name
}

func goldenGrid() []goldenConfig {
	var grid []goldenConfig
	for _, h := range []string{"mct", "met", "olb", "kpb", "minmin", "sufferage"} {
		for _, aware := range []bool{true, false} {
			for _, model := range []string{"", "purge", "frtrust", "bawa"} {
				for _, adv := range []float64{0, 0.5} {
					for _, churn := range []bool{false, true} {
						grid = append(grid, goldenConfig{heuristic: h, aware: aware, model: model, adversary: adv, churn: churn})
					}
				}
			}
		}
	}
	return grid
}

// goldenTraceOnly are the two run shapes the grid lacks: a metaheuristic
// with no fused scan (sa) and deadlines.  They are pinned in the trace
// file alone, so the result file stays as recorded.
func goldenTraceOnly() []goldenConfig {
	return []goldenConfig{
		{heuristic: "sa", aware: true},
		{heuristic: "mct", aware: true, slack: 2},
	}
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
	sc.DeadlineSlack = c.slack
	sc.Fault = fault.Plan{AdversaryFraction: c.adversary, Seed: seed}
	if c.churn {
		sc.Fault.MTBF, sc.Fault.MTTR = 1000, 100
	}
	return sc
}

// putUint64s writes vs to the hash, little-endian.
func putUint64s(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func putFloats(h hash.Hash, fs ...float64) {
	for _, f := range fs {
		putUint64s(h, math.Float64bits(f))
	}
}

// hashResult writes every field of res.
func hashResult(h hash.Hash, res *RunResult) {
	h.Write([]byte(res.Policy))
	putFloats(h, res.AvgCompletionTime, res.Makespan, res.MeanUtilization, res.MeanTrustCost,
		res.P50Completion, res.P95Completion, res.DeadlineMissRate, res.WastedWork, res.TrustTableError)
	putUint64s(h, uint64(res.Assigned), uint64(res.DeadlineMisses), uint64(res.Failures), uint64(res.Requeues))
	putFloats(h, res.Completions.Values()...)
	putFloats(h, res.BusyTime...)
}

// hashEvents writes every field of every event, in emission order: fire
// order, timestamps and costs of the whole run.
func hashEvents(h hash.Hash, events []trace.Event) {
	for _, e := range events {
		putUint64s(h, math.Float64bits(e.Time), uint64(e.Kind), uint64(e.Request), uint64(e.Machine), math.Float64bits(e.Cost))
	}
}

// digests runs the cell on every seed and returns two hashes: one of the
// result floats the paper's tables and the fault studies report, one of
// the whole RunResult and the whole trace.  Every run uses scr; nil means a
// fresh scratch per run.
func (c goldenConfig) digests(t *testing.T, scr *runScratch) (result, events string) {
	t.Helper()
	hr, he := fnv.New64a(), fnv.New64a()
	var tr trace.Trace
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
		tr.Reset()
		runScr := scr
		if runScr == nil {
			runScr = &runScratch{}
		}
		res, err := runTraced(sc, w, policy, &tr, runScr)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name(), seed, err)
		}
		putFloats(hr, res.Makespan, res.AvgCompletionTime, res.MeanUtilization,
			res.MeanTrustCost, res.TrustTableError, res.P95Completion, res.WastedWork)
		putUint64s(hr, uint64(res.Assigned), uint64(res.Requeues))
		hashResult(he, res)
		hashEvents(he, tr.Events())
	}
	return fmt.Sprintf("%016x", hr.Sum64()), fmt.Sprintf("%016x", he.Sum64())
}

// TestGoldenDigests pins the simulator's behaviour bit for bit over
// heuristic × policy × trust model × adversary fraction × churn: every
// decision view (precomputed table, whitewashed overlay, live model), by
// result and by trace.  A refactor that claims to preserve behaviour must
// leave the files under testdata/ untouched.
//
// golden_digests.json was recorded at commit 4e1832c (PR 16), before trust
// costs were factored per resource domain.  golden_traces.json and the two
// golden_equiv files of equiv_test.go were recorded at commit 6ab2e3a
// (PR 18), the last with a second, closure-kernel copy of the run loops:
// both kernels produced the same files there, which is what let that copy
// be deleted.  To confirm, copy this file, equiv_test.go and
// testdata/ into a checkout of 6ab2e3a, delete its older copy of the
// equivalence tests, and run
// `go test ./internal/sim -run 'TestGoldenDigests|TestKernelEquivalence'`:
// once as is for the default kernel, once from a wrapper test that selects
// the reference kernel first.
//
// After an intended change of behaviour, delete the affected file and run
// the test once: it records the current digests and fails, so a missing
// file never passes.
func TestGoldenDigests(t *testing.T) {
	results, traces := map[string]string{}, map[string]string{}
	for _, c := range goldenGrid() {
		results[c.name()], traces[c.name()] = c.digests(t, nil)
	}
	for _, c := range goldenTraceOnly() {
		_, traces[c.name()] = c.digests(t, nil)
	}
	checkGolden(t, goldenDigestFile, results)
	checkGolden(t, goldenTraceFile, traces)
}

// TestSharedScratchCannotLeak threads one scratch through the whole golden
// grid in a fixed shuffled order, so table-driven, whitewash-only,
// live-model and churn cells interleave on the same buffers and the same
// event queue, and requires the digests pinned for fresh scratches.  It
// then ends a run in an error on a scratch, leaving queued work, running
// tasks, requeue counts and armed crash/repair events behind, and requires
// the next run on that scratch to equal a run on a fresh one.
func TestSharedScratchCannotLeak(t *testing.T) {
	cells := goldenGrid()
	inResults := len(cells)
	cells = append(cells, goldenTraceOnly()...)
	order := rng.New(23).Perm(len(cells))
	scr := &runScratch{}
	results, traces := map[string]string{}, map[string]string{}
	for _, i := range order {
		c := cells[i]
		r, e := c.digests(t, scr)
		traces[c.name()] = e
		if i < inResults {
			results[c.name()] = r
		}
	}
	checkGolden(t, goldenDigestFile, results)
	checkGolden(t, goldenTraceFile, traces)

	for _, h := range []string{"mct", "minmin"} {
		clean := goldenConfig{heuristic: h, aware: true, model: "purge", adversary: 0.5, churn: true}
		starved := clean.scenario(1)
		starved.Fault.MTBF, starved.Fault.MTTR, starved.Fault.MaxRequeues = 20, 100, 1
		w := mustWorkload(t, starved, 1)
		aware, _, err := starved.policies()
		if err != nil {
			t.Fatal(err)
		}
		dirty := &runScratch{}
		if _, err := runTraced(starved, w, aware, nil, dirty); err == nil || !strings.Contains(err.Error(), "requeued more than 1 times") {
			t.Fatalf("%s: starving plan ended with %v, want the requeue cap error", h, err)
		}
		wantR, wantE := clean.digests(t, nil)
		if gotR, gotE := clean.digests(t, dirty); gotR != wantR || gotE != wantE {
			t.Errorf("%s: run after a failed run on the same scratch: digests %s %s, on a fresh scratch %s %s",
				h, gotR, gotE, wantR, wantE)
		}
	}
}

// pinned returns the digests recorded in file, or nil when the file does
// not exist; the caller then passes what it computed to record.
func pinned(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(file)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// record writes got to file and fails the test.
func record(t *testing.T, file string, got map[string]string) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%s was missing: recorded %d digests from the current behaviour; review and commit it", file, len(got))
}

// checkGolden compares got with the digests pinned in file, cell by cell.
func checkGolden(t *testing.T, file string, got map[string]string) {
	t.Helper()
	want := pinned(t, file)
	if want == nil {
		record(t, file, got)
		return
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d cells, the test runs %d", file, len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: %s: digest %s, pinned %s", file, name, got[name], want[name])
		}
	}
}
