//go:build !amd64

package sched

// hasAVX2 is false off amd64: every row runs the portable bodies, and the
// vector entry points below are never called.
const hasAVX2 = false

func scanZeroAVX2(eec, ft *float64, n int, now float64) (int, float64) {
	panic("sched: no vector kernels on this architecture")
}

func scanLinearAVX2(eec *float64, rdOf *int32, ft *float64, n int, tab *[vectorSlots]float64, now float64) (int, float64) {
	panic("sched: no vector kernels on this architecture")
}

func fillZeroAVX2(dst, eec, avail *float64, n int) (float64, float64, int, int) {
	panic("sched: no vector kernels on this architecture")
}

func fillLinearAVX2(dst, eec *float64, rdOf *int32, avail *float64, n int, tab *[vectorSlots]float64) (float64, float64, int, int) {
	panic("sched: no vector kernels on this architecture")
}

func pairAVX2(row, avail *float64, n int) (float64, float64, int, int) {
	panic("sched: no vector kernels on this architecture")
}
