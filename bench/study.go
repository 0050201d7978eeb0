package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of ../BENCHMARK.json the study reads.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	return &b, json.Unmarshal(data, &b)
}

// child runs one workload in one mode in a process of its own and
// parses the result line.
func child(exe, workload string, seed uint64, seconds float64, trace int) (*result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s trace %d: %w", workload, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s trace %d: result line: %w", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		return nil, fmt.Errorf("%s trace %d: correct=%v failed=%d", workload, trace, res.Correct, res.Failed)
	}
	return &res, nil
}

// iqr is the distance between the first and third quartile of the
// sorted values, as Python's statistics.quantiles(xs, n=4) places them.
func iqr(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return quartile(3) - quartile(1)
}

// runAll runs every workload, untraced then traced, repeat times with
// consecutive seeds.  One repetition prints every metric; more print the
// noise study (spread is the interquartile range as a share of the
// median) and fail when the second half-set's median of an end-to-end
// metric is worse than the first's by more than its bound.
func runAll(seed uint64, seconds float64, repeat int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if repeat < 1 {
		repeat = 1
	}
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	units := map[string]string{}
	for rep := 0; rep < repeat; rep++ {
		for _, w := range workloadNames {
			for trace := 0; trace <= 1; trace++ {
				res, err := child(exe, w, seed+uint64(rep), seconds, trace)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					values[key{w, name}] = append(values[key{w, name}], m.Value)
					units[name] = m.Unit
				}
				fmt.Fprintf(os.Stderr, "rep %d %s trace %d: %d operations, 0 failed\n", rep, w, trace, res.Attempted)
			}
		}
	}

	bounds, better := map[string]float64{}, map[string]string{}
	if b, err := loadBenchmarkFile(); err == nil {
		for _, m := range b.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	} else if repeat > 1 {
		return fmt.Errorf("bounds: %w", err)
	}
	names := make([]string, 0, len(units))
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	for _, m := range perLayer {
		names = append(names, m.name)
	}

	var failed []string
	for _, w := range workloadNames {
		fmt.Printf("\n%s\n", w)
		for _, name := range names {
			vs := values[key{w, name}]
			if len(vs) == 0 {
				continue
			}
			if repeat == 1 {
				if vs[0] != 0 {
					fmt.Printf("  %-28s %14.6g %s\n", name, vs[0], units[name])
				}
				continue
			}
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			if s[0] == 0 && s[len(s)-1] == 0 {
				continue // a layer this workload does not exercise
			}
			med := median(s)
			line := fmt.Sprintf("  %-28s min %12.6g  median %12.6g  max %12.6g %-5s", name, s[0], med, s[len(s)-1], units[name])
			if bound, gated := bounds[name]; gated {
				half := len(vs) / 2
				a, b := median(vs[:half]), median(vs[half:])
				worse := (b - a) / a
				if better[name] == "higher" {
					worse = (a - b) / a
				}
				line += fmt.Sprintf("  spread %5.1f%%  halves %+5.1f%% of bound %.0f%%", 100*iqr(s)/med, 100*worse, 100*bound)
				if worse > bound {
					failed = append(failed, w+"/"+name)
				}
			}
			fmt.Println(line)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("half-sets disagree beyond the bound: %s", strings.Join(failed, ", "))
	}
	return nil
}
