package metrics

// histogram.go implements the fixed-bucket log-scale latency histogram.
// Values (nanoseconds by convention, but any uint64 works) land in one
// of 252 buckets: the four smallest values exactly, then four
// logarithmically spaced sub-buckets per power of two — ~25% relative
// resolution across the full uint64 range, which is tighter than the
// run-to-run noise of any latency measurement it will hold.
//
// The bucket layout is a pure function of the value, with no
// configuration, so histograms recorded by different goroutines,
// processes or binary versions merge by adding bucket counts.  Merging
// is associative and commutative and loses no counts — the property
// test in metrics_test.go pins this.

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 252

// bucketIndex maps a value to its bucket.  Values 0..3 get exact
// buckets 0..3; larger values use bits.Len64 for the octave and the two
// bits below the leading one for the sub-bucket.
func bucketIndex(v uint64) int {
	if v < 4 {
		return int(v)
	}
	o := bits.Len64(v)              // 3..64
	sub := (v >> (uint(o) - 3)) & 3 // two bits after the leading one
	return (o-3)*4 + int(sub) + 4
}

// BucketLo returns the smallest value that lands in bucket idx.
func BucketLo(idx int) uint64 {
	if idx < 4 {
		return uint64(idx)
	}
	g := (idx - 4) / 4
	sub := (idx - 4) % 4
	return uint64(4+sub) << uint(g)
}

// BucketHi returns the largest value that lands in bucket idx.
func BucketHi(idx int) uint64 {
	if idx >= NumBuckets-1 {
		return math.MaxUint64
	}
	return BucketLo(idx+1) - 1
}

// Histogram is a concurrent fixed-bucket log-scale histogram.  The zero
// value is ready to use.  Observe is wait-free: three atomic adds, no
// locks, no allocation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures the histogram as a detached, mergeable value.
func (h *Histogram) Snapshot() *HistSnapshot {
	snap := &HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			snap.Buckets = append(snap.Buckets, Bucket{Idx: i, Lo: BucketLo(i), Count: n})
		}
	}
	return snap
}

// appendJSON appends the histogram as json.Marshal writes its Snapshot,
// read from the atomics in Snapshot's order: count, sum, buckets.
func (h *Histogram) appendJSON(dst []byte) []byte {
	dst = strconv.AppendUint(append(dst, `{"count":`...), h.count.Load(), 10)
	dst = strconv.AppendUint(append(dst, `,"sum":`...), h.sum.Load(), 10)
	sep := `,"buckets":[`
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			dst = strconv.AppendInt(append(append(dst, sep...), `{"idx":`...), int64(i), 10)
			dst = strconv.AppendUint(append(dst, `,"lo":`...), BucketLo(i), 10)
			dst = append(strconv.AppendUint(append(dst, `,"n":`...), n, 10), '}')
			sep = ","
		}
	}
	if sep == "," {
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// Bucket is one occupied histogram bucket in a snapshot.  Lo is
// redundant with Idx (it is BucketLo(Idx)) and carried so a JSON dump
// is readable without the bucket formula.
type Bucket struct {
	Idx   int    `json:"idx"`
	Lo    uint64 `json:"lo"`
	Count uint64 `json:"n"`
}

// HistSnapshot is a point-in-time histogram: sparse occupied buckets
// plus exact count and sum.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Merge adds other's buckets and totals into s.  Bucket layouts are
// universal, so any two snapshots merge; the operation is commutative
// and associative and exact for counts.
func (s *HistSnapshot) Merge(other *HistSnapshot) {
	if other == nil || other.Count == 0 {
		return
	}
	s.Count += other.Count
	s.Sum += other.Sum
	// Merge two sparse sorted bucket lists.
	merged := make([]Bucket, 0, len(s.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Idx < other.Buckets[j].Idx):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].Idx < s.Buckets[i].Idx:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			b := s.Buckets[i]
			b.Count += other.Buckets[j].Count
			merged = append(merged, b)
			i++
			j++
		}
	}
	s.Buckets = merged
}

// Mean returns the mean of the observed values, exact (from the running
// sum), or NaN when empty.
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the
// bucket holding the target rank and interpolating linearly inside it.
// The estimate is within the bucket's ~25% relative width of the true
// value.  It returns NaN for an empty snapshot or out-of-range q.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	rank := q * float64(s.Count-1) // 0-based fractional rank
	seen := uint64(0)
	for _, b := range s.Buckets {
		if float64(seen+b.Count) > rank {
			lo, hi := float64(b.Lo), float64(BucketHi(b.Idx))
			if b.Count == 1 {
				return lo
			}
			frac := (rank - float64(seen)) / float64(b.Count-1)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		seen += b.Count
	}
	// Rank beyond the last bucket (only by floating rounding).
	if n := len(s.Buckets); n > 0 {
		return float64(BucketHi(s.Buckets[n-1].Idx))
	}
	return math.NaN()
}
