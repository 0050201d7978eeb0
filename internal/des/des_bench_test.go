package des

import (
	"fmt"
	"testing"
)

// Benchmarks comparing the closure-based reference kernel against the
// flat queue on the event mixes the simulator produces: bulk
// schedule-then-drain (arrival streams), steady-state schedule/fire
// churn (finish events begetting finish events), and cancel-heavy
// traffic (fault-path finish cancellations).  `make bench-micro` runs
// them; EXPERIMENTS.md keeps the rows recorded when the flat queue landed.

var benchSizes = []int{1_000, 10_000, 100_000, 1_000_000}

// BenchmarkScheduleDrainReference pushes n events (pre-sorted arrival
// times, like a workload's request stream) and drains them.
func BenchmarkScheduleDrainReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fn := func(*Simulator) {}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				for j := 0; j < n; j++ {
					if _, err := s.ScheduleAt(float64(j), fn); err != nil {
						b.Fatal(err)
					}
				}
				if got := s.Run(); got != uint64(n) {
					b.Fatalf("ran %d of %d", got, n)
				}
			}
		})
	}
}

// BenchmarkScheduleDrainFlat is the flat-queue counterpart of
// BenchmarkScheduleDrainReference.
func BenchmarkScheduleDrainFlat(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := NewQueue()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Reset()
				kind := q.RegisterKind(func(*Queue, int32, int32) {})
				for j := 0; j < n; j++ {
					if _, err := q.ScheduleAt(float64(j), kind, int32(j), 0); err != nil {
						b.Fatal(err)
					}
				}
				if got := q.Run(); got != uint64(n) {
					b.Fatalf("ran %d of %d", got, n)
				}
			}
		})
	}
}

// BenchmarkSteadyStateReference measures the schedule/fire churn of a
// long-running simulation: a fixed population of k self-rescheduling
// event chains fires n total events.
func BenchmarkSteadyStateReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const k = 64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				remaining := n
				var chain Handler
				chain = func(sim *Simulator) {
					if remaining <= 0 {
						return
					}
					remaining--
					if _, err := sim.ScheduleAfter(1, chain); err != nil {
						b.Fatal(err)
					}
				}
				for j := 0; j < k; j++ {
					if _, err := s.ScheduleAt(float64(j), chain); err != nil {
						b.Fatal(err)
					}
				}
				s.RunUntil(float64(n/k + k + 2))
			}
		})
	}
}

// BenchmarkSteadyStateFlat is the flat-queue counterpart of
// BenchmarkSteadyStateReference.
func BenchmarkSteadyStateFlat(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			const k = 64
			q := NewQueue()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Reset()
				remaining := n
				var kind int32
				kind = q.RegisterKind(func(q *Queue, _, _ int32) {
					if remaining <= 0 {
						return
					}
					remaining--
					if _, err := q.ScheduleAfter(1, kind, 0, 0); err != nil {
						b.Fatal(err)
					}
				})
				for j := 0; j < k; j++ {
					if _, err := q.ScheduleAt(float64(j), kind, 0, 0); err != nil {
						b.Fatal(err)
					}
				}
				q.RunUntil(float64(n/k + k + 2))
			}
		})
	}
}

// BenchmarkCancelHeavyReference schedules n events, cancels every other
// one, and drains — the fault path's crash-cancels-finish pattern.
func BenchmarkCancelHeavyReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			fn := func(*Simulator) {}
			ids := make([]EventID, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := New()
				for j := 0; j < n; j++ {
					id, err := s.ScheduleAt(float64(j/2), fn)
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for j := 0; j < n; j += 2 {
					s.Cancel(ids[j])
				}
				if got := s.Run(); got != uint64(n/2) {
					b.Fatalf("ran %d of %d", got, n/2)
				}
			}
		})
	}
}

// BenchmarkCancelHeavyFlat is the flat-queue counterpart of
// BenchmarkCancelHeavyReference.
func BenchmarkCancelHeavyFlat(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			q := NewQueue()
			ids := make([]FlatID, n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q.Reset()
				kind := q.RegisterKind(func(*Queue, int32, int32) {})
				for j := 0; j < n; j++ {
					id, err := q.ScheduleAt(float64(j/2), kind, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					ids[j] = id
				}
				for j := 0; j < n; j += 2 {
					q.Cancel(ids[j])
				}
				if got := q.Run(); got != uint64(n/2) {
					b.Fatalf("ran %d of %d", got, n/2)
				}
			}
		})
	}
}

// TestFlatQueueZeroAllocSteadyState pins the tentpole claim: once warm,
// schedule, fire and cancel perform no heap allocation at all.
func TestFlatQueueZeroAllocSteadyState(t *testing.T) {
	q := NewQueue()
	var kind int32
	kind = q.RegisterKind(func(q *Queue, a, _ int32) {
		if a > 0 {
			if _, err := q.ScheduleAfter(1, kind, a-1, 0); err != nil {
				t.Error(err)
			}
		}
	})
	// Warm the buffers: grow heap, slots and free list to working size.
	var ids []FlatID
	for j := 0; j < 256; j++ {
		id, err := q.ScheduleAt(float64(j), kind, 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for j := 0; j < 256; j += 2 {
		q.Cancel(ids[j])
	}
	q.Run()

	allocs := testing.AllocsPerRun(100, func() {
		base := q.Now()
		var last FlatID
		for j := 0; j < 128; j++ {
			id, err := q.ScheduleAt(base+float64(j), kind, 3, 0)
			if err != nil {
				t.Fatal(err)
			}
			last = id
		}
		q.Cancel(last)
		q.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule/fire/cancel allocates %.1f times per run, want 0", allocs)
	}
}
