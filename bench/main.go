// Command bench is the repository's benchmark: five workloads, each run
// in a process of its own, that print the end-to-end metrics of
// BENCHMARK.json (--trace 0) or the per-layer metrics behind them
// (--trace 1) and check that what the system did was correct.
//
//	go run . --workload serve_mixed --seed 1 --seconds 20 --trace 0
//	go run .              # every workload, untraced then traced
//	go run . -repeat 6    # the noise study of README.md
//
// README.md defines every metric and says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"gridtrust/internal/rmswire"
)

// nproc sizes everything concurrent: GOMAXPROCS is left at its default
// of nproc, and the driver opens nproc client connections with one
// goroutine each.
var nproc = runtime.NumCPU()

const (
	outDir      = "out" // relative to the bench directory, the working directory
	defaultSecs = 20
)

// setupSamples is how many times a workload is set up from cold; the
// smoke test lowers it.
var setupSamples = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload in one mode.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	tmp      string

	endToEnd map[string]float64
	layers   map[string]float64
	info     map[string]any // printed beside the metrics
	ops      int64
}

// untracedWindow is the window that gives the end-to-end metrics.  A
// traced run splits --seconds into an untraced reference window and a
// traced window of the same length (a fastest-of-N estimate improves with
// N, so unequal windows would read as tracing overhead) and keeps the
// rest for the shadow replays.
func (r *run) untracedWindow() time.Duration {
	if r.traced {
		return r.window * 7 / 20
	}
	return r.window
}

var workloadNames = []string{"serve_durable", "serve_mixed", "fleet3", "sim_paper", "sim_trust"}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all, each in a child process")
		seed     = flag.Uint64("seed", goldenSeed, "seed of the generated inputs")
		seconds  = flag.Float64("seconds", defaultSecs, "length of the timed window")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		repeat   = flag.Int("repeat", 0, "run the whole benchmark this many times and study the noise")
	)
	flag.Parse()
	window := time.Duration(*seconds * float64(time.Second))
	var err error
	if *workload == "" {
		err = runAll(*seed, *seconds, *repeat)
	} else {
		err = runOne(*workload, *seed, window, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// execute runs one workload in one mode and checks it.
func execute(workload string, seed uint64, window time.Duration, traced bool) (*run, error) {
	r := &run{
		workload: workload, seed: seed, window: window, traced: traced,
		endToEnd: map[string]float64{}, layers: map[string]float64{},
	}
	r.info = map[string]any{
		"workload": workload, "seed": seed, "window_s": window.Seconds(), "traced": traced,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit(),
	}
	var err error
	if r.tmp, err = scratchDir(workload); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.tmp)

	found := false
	for _, spec := range serveSpecs {
		if spec.name == workload {
			found, err = true, r.serve(spec)
		}
	}
	for _, spec := range simSpecs {
		if spec.name == workload {
			found, err = true, r.sim(spec)
		}
	}
	if !found {
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if r.endToEnd["peak_rss_mb"] == 0 {
		r.endToEnd["peak_rss_mb"] = peakRSSMB()
	}
	return r, err
}

func runOne(workload string, seed uint64, window time.Duration, trace int) error {
	traced := trace == 1
	r, err := execute(workload, seed, window, traced)
	if err != nil {
		return err
	}
	res := result{Correct: true, Attempted: r.ops, Metrics: map[string]metric{}}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{r.layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{r.endToEnd[m.name], m.unit}
		}
	}
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace)),
		[]byte(fmt.Sprintf("{\"run\":%s,\"result\":%s}\n", info, line)), 0o644); err != nil {
		return err
	}
	fmt.Printf("run %s\n%s\n", info, line)
	return nil
}

// endToEnd are the gated metrics; every workload reports all four.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// scratchDir makes the run's private directory under out/, the only
// place the benchmark writes.
func scratchDir(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-"+workload+"-")
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the machine-wide steal and total jiffies.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		if i <= 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// meter brackets a window with the process-wide counters the memory and
// steal diagnostics come from.
type meter struct {
	mem          runtime.MemStats
	steal, total float64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.steal, m.total = cpuTicks()
	return m
}

func (m *meter) stop() (mallocs, gcPauseMS, stealPct float64) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	steal, total := cpuTicks()
	if total > m.total {
		stealPct = 100 * (steal - m.steal) / (total - m.total)
	}
	return float64(now.Mallocs - m.mem.Mallocs), float64(now.PauseTotalNs-m.mem.PauseTotalNs) / 1e6, stealPct
}

// serve runs one serve workload.
func (r *run) serve(spec serveSpec) error {
	// The gated window leaves fsync out: in this sandbox its latency
	// drifts by ±20 % from second to second (README, "fsync"), which no
	// estimator removes.  Everything else of the durable path runs, and
	// the traced pass runs the product's configuration, fsync included.
	noSync := !r.traced
	seedDir := filepath.Join(r.tmp, "seed")
	if spec.durable {
		if err := seedJournal(spec, r.seed, seedDir); err != nil {
			return fmt.Errorf("seed journal: %w", err)
		}
	}

	var rig *rig
	var samples []float64
	stages := map[string]float64{}
	dataDir := ""
	for s := 0; s < setupSamples; s++ {
		dirs := make([]string, spec.starts)
		for k := range dirs {
			dirs[k] = filepath.Join(r.tmp, fmt.Sprintf("data-%d-%d", s, k))
			if spec.durable {
				if err := copyDir(seedDir, dirs[k]); err != nil {
					return err
				}
			}
		}
		var took time.Duration
		for k := range dirs {
			if rig != nil {
				rig.close()
			}
			began := time.Now()
			var err error
			if rig, err = coldStart(spec, r.seed, dirs[k], noSync); err != nil {
				return fmt.Errorf("cold start: %w", err)
			}
			took += time.Since(began)
			keepFastest(stages, rig.stages)
			dataDir = dirs[k]
		}
		samples = append(samples, took.Seconds()/float64(spec.starts))
	}
	defer func() { rig.close() }()
	r.endToEnd["setup_s"] = slices.Min(samples)
	r.info["setup_samples_s"] = samples
	r.info["setup_starts_per_sample"] = spec.starts
	for name, ms := range stages {
		r.layers[name] = ms
	}

	began := time.Now()
	if _, err := rig.drive(0, warmupCycles, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	r.layers["bench.warmup_s"] = time.Since(began).Seconds()

	ref, err := rig.measure(r.untracedWindow(), nil)
	if err != nil {
		return err
	}
	r.endToEnd["ops_per_s"] = ref.opsPerS
	r.endToEnd["op_p50_ms"] = ref.submitH.ms(0.5)
	r.info["op_samples"] = ref.submitH.n
	r.info["cycle_samples"] = ref.cycleH.n
	r.info["wall_ops_per_s"] = float64(ref.ops) / ref.wall.Seconds()
	r.ops = ref.ops
	r.endToEnd["peak_rss_mb"] = rig.rssMB
	if !r.traced {
		return rig.reconcile()
	}

	var appends0, syncs0 uint64
	if spec.durable {
		st := rig.shards[0].log.Stats()
		appends0, syncs0 = st.Appends, st.Syncs
	}
	tr := newTracer()
	mtr := startMeter()
	w, err := rig.measure(r.untracedWindow(), tr)
	if err != nil {
		return err
	}
	mallocs, gcMS, stealPct := mtr.stop()
	r.ops = ref.ops + w.ops
	l := r.layers
	l["bench.trace_overhead_pct"] = 100 * (ref.opsPerS - w.opsPerS) / ref.opsPerS
	l["bench.wall_ops_per_s"] = float64(w.ops) / w.wall.Seconds()
	l["bench.op_p99_ms"] = w.submitH.ms(0.99)
	l["bench.cycle_p50_ms"] = w.cycleH.ms(0.5)
	l["bench.samples"] = float64(w.submitH.n)
	l["bench.allocs_per_op"] = mallocs / float64(w.ops)
	l["bench.gc_pause_ms"] = gcMS
	l["bench.steal_pct"] = stealPct
	l["read_p50_ms"] = w.readH.ms(0.5)
	if h := rig.histogram(rmswire.MetricOpSubmitNS); h.Count > 0 {
		l["rmswire.submit_service_us"] = h.Quantile(0.5) / 1e3
	}
	l["rmswire.wire_residual_us"] = w.localH.us(0.5) - l["rmswire.submit_service_us"]
	l["fleet.forward_ratio"] = float64(w.forwarded) / float64(w.submits)
	if w.fwdH.n > 0 {
		l["fleet.forward_extra_us"] = w.fwdH.us(0.5) - w.localH.us(0.5)
	}
	if spec.durable {
		st := rig.shards[0].log.Stats()
		l["wal.appends"] = float64(st.Appends - appends0)
		l["wal.syncs_per_append"] = float64(st.Syncs-syncs0) / float64(st.Appends-appends0)
		l["wal.batch_records_p50"] = rig.histogram(rmswire.MetricWALBatchRecords).Quantile(0.5)
		var ms []float64
		for i := 0; i < 3; i++ {
			began := time.Now()
			if _, err := rig.shards[0].srv.Checkpoint(); err != nil {
				return fmt.Errorf("checkpoint: %w", err)
			}
			tr.add("rmswire.Server.Checkpoint", 0, int64(i), began, time.Now())
			ms = append(ms, float64(time.Since(began))/1e6)
		}
		l["rmswire.checkpoint_ms"] = median(ms)
	}
	probes, err := readProbe(rig, tr)
	if err != nil {
		return err
	}
	merge(l, probes)
	if spec.shards > 1 {
		fl, err := fleetLayers(rig, tr)
		if err != nil {
			return err
		}
		merge(l, fl)
	}
	if err := rig.reconcile(); err != nil {
		return err
	}
	recordBytes := 0.0
	if spec.durable {
		// A few more cycles so the live segment holds records again after
		// the checkpoints, then read their size off the closed directory.
		if _, err := rig.drive(0, 200, nil); err != nil {
			return err
		}
		rig.close()
		if recordBytes, err = journalBytes(dataDir); err != nil {
			return err
		}
		l["wal.bytes_per_append"] = recordBytes
	}
	shadow, err := shadowServe(rig, tr, r.tmp, int(recordBytes))
	if err != nil {
		return err
	}
	merge(l, shadow)
	r.info["spans"] = len(tr.spans)
	return tr.write(r.workload, r.info)
}

// keepFastest folds one cold start's stage times into the fastest seen.
func keepFastest(dst, src map[string]float64) {
	for name, ms := range src {
		if old, ok := dst[name]; !ok || ms < old {
			dst[name] = ms
		}
	}
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// sim runs one simulator workload.
func (r *run) sim(spec simSpec) error {
	// The pinned seed first, on every run: see goldenSeed.
	pinned, err := startSim(spec, goldenSeed)
	if err != nil {
		return err
	}
	if err := pinned.checkGolden(goldenSeed); err != nil {
		return err
	}
	pinned = nil
	debug.FreeOSMemory()

	var s *simRun
	var samples []float64
	for i := 0; i < setupSamples; i++ {
		s = nil
		began := time.Now()
		if s, err = startSim(spec, r.seed); err != nil {
			return err
		}
		samples = append(samples, time.Since(began).Seconds())
		keepFastest(r.layers, s.stages)
	}
	r.endToEnd["setup_s"] = slices.Min(samples)
	r.info["setup_samples_s"] = samples
	if err := s.checkGolden(r.seed); err != nil {
		return err
	}

	began := time.Now()
	for _, l := range s.legs { // warm-up is a fixed amount of work: one round
		if _, _, err := runLeg(l); err != nil {
			return err
		}
	}
	r.layers["bench.warmup_s"] = time.Since(began).Seconds()

	ref, err := s.rounds(r.untracedWindow(), nil)
	if err != nil {
		return err
	}
	r.endToEnd["ops_per_s"] = ref.opsPerS
	r.endToEnd["op_p50_ms"] = median(ref.legMin) / 1e6
	r.info["rounds"] = ref.rounds
	r.info["replications"] = ref.repH.n
	r.info["improvement_pct"] = improvementPct(s.legs, s.first)
	r.ops = int64(ref.rounds) * int64(s.tasks)
	if !r.traced {
		return nil
	}

	tr := newTracer()
	mtr := startMeter()
	w, err := s.rounds(r.untracedWindow(), tr)
	if err != nil {
		return err
	}
	mallocs, gcMS, stealPct := mtr.stop()
	r.ops = int64(ref.rounds+w.rounds) * int64(s.tasks)
	l := r.layers
	l["bench.trace_overhead_pct"] = 100 * (ref.opsPerS - w.opsPerS) / ref.opsPerS
	l["bench.wall_ops_per_s"] = float64(w.rounds*s.tasks) / w.wall.Seconds()
	l["bench.samples"] = float64(w.repH.n)
	l["bench.allocs_per_op"] = mallocs / float64(w.rounds*s.tasks)
	l["sim.allocs_per_task"] = l["bench.allocs_per_op"]
	l["bench.gc_pause_ms"] = gcMS
	l["bench.steal_pct"] = stealPct
	l["sim.rep_p50_ms"] = w.repH.ms(0.5)
	l["sim.makespan_s"] = s.first[0].makespan
	l["sim.mean_utilization"] = s.first[0].utilization
	if spec.name == "sim_paper" {
		l["improvement_pct"] = improvementPct(s.legs, s.first)
	}
	// Tasks per second of each heuristic or model, from its fastest legs.
	tasks, ns := map[string]float64{}, map[string]float64{}
	for i, lg := range s.legs {
		tasks[lg.pair] += float64(lg.sc.Tasks)
		ns[lg.pair] += w.legMin[i]
	}
	for pair := range tasks {
		l["sim."+pair+"_tasks_per_s"] = tasks[pair] / (ns[pair] / 1e9)
	}
	shadow, err := shadowSim(s, tr)
	if err != nil {
		return err
	}
	merge(l, shadow)
	r.info["spans"] = len(tr.spans)
	return tr.write(r.workload, r.info)
}
