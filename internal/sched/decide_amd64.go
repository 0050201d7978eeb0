package sched

// hasAVX2 reports whether the CPU has AVX2 and the OS saves YMM state;
// it is read once, and only the vector/portable dispatch reads it.
var hasAVX2 = cpuHasAVX2()

// cpuHasAVX2 is the one CPUID/XGETBV probe of decide_amd64.s.
func cpuHasAVX2() bool

// The vector kernels below price the first n machines of a row, n a
// positive multiple of four; decide.go's portable bodies finish the row.
// tab holds the row's factors (at most four slots) and rdOf must index
// it.  now is normalised (now + 0) by the caller.

// scanZeroAVX2 is ScanMCT's zero form over machines [0,n).
//
//go:noescape
func scanZeroAVX2(eec, ft *float64, n int, now float64) (best int, val float64)

// scanLinearAVX2 is ScanMCT's linear form over machines [0,n).
//
//go:noescape
func scanLinearAVX2(eec *float64, rdOf *int32, ft *float64, n int, tab *[vectorSlots]float64, now float64) (best int, val float64)

// fillZeroAVX2 is fillVector's zero form over machines [0,n).
//
//go:noescape
func fillZeroAVX2(dst, eec, avail *float64, n int) (bestD, secondD float64, bestM, secondM int)

// fillLinearAVX2 is fillVector's linear form over machines [0,n).
//
//go:noescape
func fillLinearAVX2(dst, eec *float64, rdOf *int32, avail *float64, n int, tab *[vectorSlots]float64) (bestD, secondD float64, bestM, secondM int)

// pairAVX2 is pairVector over machines [0,n).
//
//go:noescape
func pairAVX2(row, avail *float64, n int) (bestD, secondD float64, bestM, secondM int)
