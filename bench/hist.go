package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a fixed-size log-linear histogram of nanosecond durations with
// 64 sub-buckets per power of two, so a bucket is at most 1.6 % wide and
// an interpolated quantile is far inside the benchmark's 10 % bounds.  It
// never allocates while recording, which keeps the driver's own memory
// out of peak_rss_mb and bench.allocs_per_op.  One goroutine records;
// readers merge after the recorders have stopped.
type hist struct {
	n uint64
	b [59 * 64]uint64
}

func histIndex(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 1 // >= 6
	return (e-5)*64 + int((v>>(e-6))&63)
}

// histBounds returns the inclusive lower bound and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < 64 {
		return float64(i), 1
	}
	e := i/64 + 5
	return float64(uint64(64+i%64) << (e - 6)), float64(uint64(1) << (e - 6))
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.b[histIndex(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket that holds the rank; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo, width := histBounds(i)
			return lo + width*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	lo, width := histBounds(len(h.b) - 1)
	return lo + width
}

func (h *hist) us(q float64) float64 { return h.quantile(q) / 1e3 }
func (h *hist) ms(q float64) float64 { return h.quantile(q) / 1e6 }

// median works on the short per-leg and per-probe series.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
