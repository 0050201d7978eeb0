package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// heldOutSeed is pinned in golden.json beside goldenSeed but was not
// used while the benchmark was written.
const heldOutSeed = 20020818

// TestGolden checks both pinned seeds of both sim workloads.  With
// BENCH_UPDATE_GOLDEN=1 it rewrites golden.json instead; rebuild before
// running anything else, the file is embedded.
func TestGolden(t *testing.T) {
	update := os.Getenv("BENCH_UPDATE_GOLDEN") == "1"
	fresh := map[string]map[string]goldenEntry{}
	for _, spec := range simSpecs {
		fresh[spec.name] = map[string]goldenEntry{}
		for _, seed := range []uint64{goldenSeed, heldOutSeed} {
			s, err := startSim(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			fresh[spec.name][strconv.FormatUint(seed, 10)] = s.goldenEntry()
			if update {
				continue
			}
			if g, _ := loadGolden(); len(g[spec.name][strconv.FormatUint(seed, 10)].Legs) == 0 {
				t.Errorf("golden.json pins nothing for %s seed %d", spec.name, seed)
			}
			if err := s.checkGolden(seed); err != nil {
				t.Error(err)
			}
		}
	}
	if update {
		data, err := json.MarshalIndent(fresh, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSmoke runs every workload through its traced pass on a short
// window and holds the output against BENCHMARK.json and against the
// layer separation README's interaction table predicts.
func TestSmoke(t *testing.T) {
	b, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || !name.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("end_to_end name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("per_layer name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
	}

	setupSamples = 1
	for _, w := range workloadNames {
		r, err := execute(w, goldenSeed, 300*time.Millisecond, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		for _, m := range endToEnd {
			if v, ok := r.endToEnd[m.name]; !ok || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.name, v)
			}
		}
		for k := range r.endToEnd {
			if !seen[k] {
				t.Errorf("%s: end-to-end metric %s is not in BENCHMARK.json", w, k)
			}
		}
		for k := range r.layers {
			if !seen[k] {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", w, k)
			}
		}
		if r.ops <= 0 {
			t.Errorf("%s: %d operations attempted", w, r.ops)
		}
		if _, err := os.Stat("out/trace-" + w + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w, err)
		}

		l := r.layers
		durable, fleet := w == "serve_durable", w == "fleet3"
		if (l["wal.appends"] > 0) != durable {
			t.Errorf("%s: wal.appends = %v", w, l["wal.appends"])
		}
		if fleet && l["fleet.forward_ratio"] <= 0.5 || !fleet && l["fleet.forward_ratio"] != 0 {
			t.Errorf("%s: fleet.forward_ratio = %v", w, l["fleet.forward_ratio"])
		}
		if l["fleet.forward_err"] != 0 {
			t.Errorf("%s: fleet.forward_err = %v", w, l["fleet.forward_err"])
		}
		for k, v := range l {
			layer, _, _ := strings.Cut(k, ".")
			serve := strings.HasPrefix(w, "serve_") || fleet
			switch {
			case layer == "trust" && w != "sim_trust",
				(layer == "sched" || layer == "des") && w != "sim_paper",
				(layer == "core" || layer == "rmswire" || layer == "metrics") && !serve && !strings.HasSuffix(k, "journal_replay_ms"),
				(layer == "fleet" || layer == "trustwire") && !fleet,
				layer == "sim" && serve:
				if v != 0 {
					t.Errorf("%s: %s = %v, want 0: the workload does not exercise that layer", w, k, v)
				}
			}
		}
	}
	// sim_paper's trust costs come from the static table: no scenario of
	// it names a trust model, so the trust layer is never called.
	legs, err := buildPaper(goldenSeed, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range legs {
		if l.sc.TrustModel != "" {
			t.Errorf("sim_paper leg %s runs trust model %q", l.name, l.sc.TrustModel)
		}
	}
}
