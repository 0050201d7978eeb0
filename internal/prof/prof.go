// Package prof wires the runtime/pprof CPU and heap profilers into the
// command-line tools: every trustsim command that runs a grid (the tables
// and `trustsim sweep`) accepts -cpuprofile/-memprofile so a perf
// regression can be profiled on the exact workload that exposed it,
// without rebuilding with ad-hoc instrumentation.  See EXPERIMENTS.md for the workflow.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling to cpuPath and arranges a heap profile at
// memPath; either path may be empty to skip that profile.  It returns a
// stop function that finishes both profiles — call it exactly once,
// before the process exits (os.Exit skips defers, so call it explicitly
// on early-exit paths).
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "prof: close CPU profile: %v\n", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
				return
			}
			runtime.GC() // materialise final heap state before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "prof: write heap profile: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "prof: close heap profile: %v\n", err)
			}
		}
	}, nil
}
