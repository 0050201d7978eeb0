package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"gridtrust/internal/rng"
	"gridtrust/internal/sched"
	"gridtrust/internal/sim"
	"gridtrust/internal/workload"
)

// paperMachines is the paper's five-machine experiment; the sim
// workloads scale the arrival rate with the machine count, so the load
// offered per machine stays that of Tables 4-9.
const (
	paperMachines = 5
	paperRate     = 0.04
	simDomains    = 4 // CDs and RDs; fixed so every seed has the same shape
)

// leg is one sim.Run call of a round.
type leg struct {
	name   string
	sc     sim.Scenario
	w      *workload.Workload
	policy sched.Policy
	// pair groups the trust-aware and trust-unaware leg of one heuristic.
	pair  string
	aware bool
}

type simSpec struct {
	name  string
	build func(seed uint64, stages map[string]float64) ([]*leg, error)
}

var simSpecs = []simSpec{
	{name: "sim_paper", build: buildPaper},
	{name: "sim_trust", build: buildTrust},
}

func scaled(heuristic string, tasks, machines int) sim.Scenario {
	sc := sim.PaperScenario(heuristic, tasks, workload.Inconsistent)
	sc.Machines = machines
	sc.ArrivalRate = paperRate * float64(machines) / paperMachines
	sc.NumCDs, sc.NumRDs = simDomains, simDomains
	return sc
}

func generate(sc sim.Scenario, src *rng.Source, stages map[string]float64) (*workload.Workload, error) {
	began := time.Now()
	w, err := workload.NewWorkload(src, sc.WorkloadSpec())
	stages["workload.generate_ms"] += float64(time.Since(began)) / 1e6
	return w, err
}

// buildPaper is the paper's experiment at 1024 machines: each heuristic
// runs trust-aware and trust-unaware on one pre-generated workload.
func buildPaper(seed uint64, stages map[string]float64) ([]*leg, error) {
	aware, err := sched.TrustAware(sched.DefaultTCWeight)
	if err != nil {
		return nil, err
	}
	unaware, err := sched.TrustUnaware(sched.DefaultFlatOverheadPct)
	if err != nil {
		return nil, err
	}
	streams := rng.Streams(seed, 3)
	var legs []*leg
	for i, h := range []struct {
		name  string
		tasks int
	}{{"mct", 2048}, {"minmin", 512}, {"sufferage", 512}} {
		sc := scaled(h.name, h.tasks, 1024)
		w, err := generate(sc, streams[i], stages)
		if err != nil {
			return nil, err
		}
		legs = append(legs,
			&leg{name: h.name + "/aware", sc: sc, w: w, policy: aware, pair: h.name, aware: true},
			&leg{name: h.name + "/unaware", sc: sc, w: w, policy: unaware, pair: h.name})
	}
	return legs, nil
}

// buildTrust runs MCT under each rival trust model: the event-per-task
// kernel with a live model behind every trust-cost lookup.
func buildTrust(seed uint64, stages map[string]float64) ([]*leg, error) {
	aware, err := sched.TrustAware(sched.DefaultTCWeight)
	if err != nil {
		return nil, err
	}
	sc := scaled("mct", 2048, 64)
	w, err := generate(sc, rng.New(seed), stages)
	if err != nil {
		return nil, err
	}
	var legs []*leg
	for _, model := range []string{"purge", "frtrust", "bawa"} {
		msc := sc
		msc.TrustModel = model
		legs = append(legs, &leg{name: model, sc: msc, w: w, policy: aware, pair: model, aware: true})
	}
	return legs, nil
}

// legResult is what a leg must reproduce bit for bit.
type legResult struct {
	Leg           string `json:"leg"`
	MakespanBits  uint64 `json:"makespan_bits"`
	AvgCompletion uint64 `json:"avg_completion_bits"`

	makespan, utilization, avg float64
}

func runLeg(l *leg) (legResult, time.Duration, error) {
	began := time.Now()
	res, err := sim.Run(l.sc, l.w, l.policy)
	d := time.Since(began)
	if err != nil {
		return legResult{}, d, fmt.Errorf("%s: %w", l.name, err)
	}
	if res.Assigned != l.sc.Tasks {
		return legResult{}, d, fmt.Errorf("%s: %d of %d tasks assigned", l.name, res.Assigned, l.sc.Tasks)
	}
	return legResult{
		Leg:           l.name,
		MakespanBits:  math.Float64bits(res.Makespan),
		AvgCompletion: math.Float64bits(res.AvgCompletionTime),
		makespan:      res.Makespan,
		utilization:   res.MeanUtilization,
		avg:           res.AvgCompletionTime,
	}, d, nil
}

// simRun is a sim workload brought up to its first finished round.
type simRun struct {
	spec   simSpec
	legs   []*leg
	first  []legResult // the round every later round must repeat
	stages map[string]float64
	tasks  int // simulated tasks per round
}

func startSim(spec simSpec, seed uint64) (*simRun, error) {
	s := &simRun{spec: spec, stages: map[string]float64{}}
	var err error
	if s.legs, err = spec.build(seed, s.stages); err != nil {
		return nil, err
	}
	for _, l := range s.legs {
		s.tasks += l.sc.Tasks
		res, _, err := runLeg(l)
		if err != nil {
			return nil, err
		}
		s.first = append(s.first, res)
	}
	return s, nil
}

// improvementPct is the paper's headline: how much lower the average
// completion time is with trust-aware mapping, averaged over the
// heuristics of the round.
func improvementPct(legs []*leg, results []legResult) float64 {
	aware, unaware := map[string]float64{}, map[string]float64{}
	for i, l := range legs {
		if l.aware {
			aware[l.pair] = results[i].avg
		} else {
			unaware[l.pair] = results[i].avg
		}
	}
	sum, n := 0.0, 0
	for _, l := range legs {
		if u, ok := unaware[l.pair]; ok && l.aware {
			sum += 100 * (u - aware[l.pair]) / u
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// simWindow is what one timed window of rounds measured.
type simWindow struct {
	wall    time.Duration
	rounds  int
	legMin  []float64 // fastest replication per leg, ns
	legH    []hist    // every replication, per leg
	repH    hist      // every replication
	opsPerS float64   // tasks per round ÷ Σ fastest leg
}

// rounds repeats the round until the deadline and checks every
// replication against the first.
func (s *simRun) rounds(d time.Duration, tr *tracer) (*simWindow, error) {
	w := &simWindow{legMin: make([]float64, len(s.legs)), legH: make([]hist, len(s.legs))}
	began := time.Now()
	for time.Since(began) < d || w.rounds == 0 {
		roundStart := time.Now()
		var ends []time.Time
		for i, l := range s.legs {
			res, took, err := runLeg(l)
			if err != nil {
				return nil, err
			}
			if res.MakespanBits != s.first[i].MakespanBits || res.AvgCompletion != s.first[i].AvgCompletion {
				return nil, fmt.Errorf("%s: replication %d differs from the first on identical inputs", l.name, w.rounds)
			}
			if ns := float64(took); w.legMin[i] == 0 || ns < w.legMin[i] {
				w.legMin[i] = ns
			}
			w.repH.record(took)
			w.legH[i].record(took)
			ends = append(ends, time.Now())
		}
		if tr != nil {
			req := int64(w.rounds)
			root := tr.add("round", 0, req, roundStart, ends[len(ends)-1])
			from := roundStart
			for i, l := range s.legs {
				tr.add("sim.Run:"+l.name, root, req, from, ends[i])
				from = ends[i]
			}
		}
		w.rounds++
	}
	w.wall = time.Since(began)
	sum := 0.0
	for _, ns := range w.legMin {
		sum += ns
	}
	w.opsPerS = float64(s.tasks) / (sum / 1e9)
	return w, nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenSeed is checked on every run of a sim workload, whatever --seed
// is, so a behaviour change fails every run and not only the runs that
// happen to use a pinned seed.  The file also pins a held-out seed.
const goldenSeed = 1

type goldenEntry struct {
	Legs            []legResult `json:"legs"`
	ImprovementBits uint64      `json:"improvement_pct_bits,omitempty"`
}

// golden maps workload -> seed -> pinned results.
func loadGolden() (map[string]map[string]goldenEntry, error) {
	g := map[string]map[string]goldenEntry{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func (s *simRun) goldenEntry() goldenEntry {
	e := goldenEntry{Legs: s.first}
	if s.spec.name == "sim_paper" {
		e.ImprovementBits = math.Float64bits(improvementPct(s.legs, s.first))
	}
	return e
}

// checkGolden compares the run's first round against golden.json; a
// seed the file does not pin passes.
func (s *simRun) checkGolden(seed uint64) error {
	g, err := loadGolden()
	if err != nil {
		return err
	}
	want, ok := g[s.spec.name][strconv.FormatUint(seed, 10)]
	if !ok {
		return nil
	}
	got := s.goldenEntry()
	if len(got.Legs) != len(want.Legs) {
		return fmt.Errorf("golden %s seed %d: %d legs, want %d", s.spec.name, seed, len(got.Legs), len(want.Legs))
	}
	for i, w := range want.Legs {
		if g := got.Legs[i]; g.Leg != w.Leg || g.MakespanBits != w.MakespanBits || g.AvgCompletion != w.AvgCompletion {
			return fmt.Errorf("golden %s seed %d leg %s: makespan %v avg completion %v, pinned %v and %v",
				s.spec.name, seed, g.Leg, g.makespan, g.avg,
				math.Float64frombits(w.MakespanBits), math.Float64frombits(w.AvgCompletion))
		}
	}
	if got.ImprovementBits != want.ImprovementBits {
		return fmt.Errorf("golden %s seed %d: improvement_pct %v, pinned %v", s.spec.name, seed,
			math.Float64frombits(got.ImprovementBits), math.Float64frombits(want.ImprovementBits))
	}
	return nil
}
