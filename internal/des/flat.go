// Package des is a deterministic discrete-event simulation kernel: an
// event queue keyed by (time, sequence) and a run loop.  The paper's
// evaluation runs on exactly such a simulator: "the resource allocation
// process was simulated using a discrete event simulator with the
// requests arrivals modeled using a Poisson random process" (Section 5.3).
//
// Determinism contract: events with equal timestamps fire in scheduling
// order (FIFO tie-break via a monotone sequence number), so a simulation
// driven by a seeded rng.Source is bit-reproducible.
package des

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Queue is the event queue.  It stores events as plain values in a 4-ary
// heap and dispatches them through a fixed table of typed handlers, so a
// steady-state run schedules, fires and cancels events without touching
// the heap allocator at all.  It is not safe for concurrent use; a
// simulation is a single logical thread (parallelism in this project
// happens across simulations, in internal/exp).
//
// Its oracle is the closure-per-event binary-heap Simulator in
// reference_test.go.  Both implement the same contract — (time, sequence)
// order, equal-timestamp FIFO, lazy cancellation, Stop/Run/RunUntil/Step
// — and flat_equiv_test.go plus FuzzQueueEquivalence prove the fire
// orders identical on arbitrary schedule/cancel/now interleavings.
//
// Design notes:
//   - The heap is a slice of 32-byte entry values.  A 4-ary layout
//     halves the tree height of a binary heap, and keeps parent and
//     children on one or two cache lines instead of chasing pointers.
//   - Events carry a kind plus two int32 arguments instead of a
//     closure.  Handlers are registered once per run; the per-event
//     cost of varying state is two integers, not a captured
//     environment.
//   - Cancellation needs an identity that survives heap sifts, so each
//     entry points at a slot in a side array; slots carry a generation
//     counter and are recycled through a free list.  A FlatID is
//     (slot, generation): cancelling a fired or stale ID compares
//     generations and returns false.
//   - Events known up front — a simulation's arrivals — can bypass the
//     heap as a stream (Stream): a sorted array read from the front and
//     merged with the heap by the same (time, sequence) order, so the
//     heap holds only the events the run creates as it goes and every pop
//     sifts a heap of that size, not one of every arrival still to come.
//     The stream's sequence numbers are consecutive, so they are its
//     first one plus a position, not stored.
type Queue struct {
	now     float64
	seq     uint64
	heap    []entry
	slots   []slotState
	free    []int32
	dead    int // cancelled entries still buried in the heap
	stopped bool

	stream []Event // installed by Stream, sorted by time
	sseq   uint64  // stream[i]'s sequence number is sseq+i
	next   int     // stream[next:] is still to fire

	executed uint64
	handlers []TypedHandler
}

// TypedHandler is the action a typed event performs.  It receives the
// queue (to schedule follow-ups) and the two int arguments the event
// was scheduled with; the event's timestamp is q.Now().
type TypedHandler func(q *Queue, a, b int32)

// entry is one scheduled occurrence, stored by value in the heap.
type entry struct {
	at   float64
	seq  uint64
	slot int32 // 1-based slot index carrying cancel identity
	kind int32
	a, b int32
}

// slotState carries the out-of-heap identity of a scheduled event.
type slotState struct {
	gen    uint32
	queued bool // false once fired, cancelled or never used
	dead   bool // cancelled but not yet popped
}

// FlatID identifies a scheduled event for cancellation.  The zero value
// is valid and names no event.
type FlatID struct {
	slot int32 // 1-based; 0 means "no event"
	gen  uint32
}

// NewQueue returns an empty flat queue with the clock at zero.
func NewQueue() *Queue {
	return &Queue{}
}

// Reset returns the queue to its initial state — clock zero, no events,
// no handlers — while keeping every internal buffer's capacity, so one
// queue can be recycled across replications without reallocating.
func (q *Queue) Reset() {
	q.now = 0
	q.seq = 0
	q.heap = q.heap[:0]
	q.stream, q.next = nil, 0
	q.slots = q.slots[:0]
	q.free = q.free[:0]
	q.dead = 0
	q.stopped = false
	q.executed = 0
	q.handlers = q.handlers[:0]
}

// RegisterKind installs a handler and returns the kind to schedule it
// under.  Kinds are registered once per run, before scheduling.
func (q *Queue) RegisterKind(h TypedHandler) int32 {
	q.handlers = append(q.handlers, h)
	return int32(len(q.handlers) - 1)
}

// Now returns the current simulated time.
func (q *Queue) Now() float64 { return q.now }

// Pending returns the number of events still scheduled, streamed ones
// included (cancelled events awaiting their lazy removal are not counted).
func (q *Queue) Pending() int { return len(q.heap) - q.dead + len(q.stream) - q.next }

// Executed returns the number of events that have fired.
func (q *Queue) Executed() uint64 { return q.executed }

// ScheduleAt schedules an event of the given kind at absolute time at.
// Scheduling in the past (before Now) is an error: the paper's model is
// causal.
func (q *Queue) ScheduleAt(at float64, kind, a, b int32) (FlatID, error) {
	if err := q.check(at, kind); err != nil {
		return FlatID{}, err
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		q.slots = append(q.slots, slotState{})
		slot = int32(len(q.slots))
	}
	st := &q.slots[slot-1]
	st.queued = true
	st.dead = false
	ev := entry{at: at, seq: q.seq, slot: slot, kind: kind, a: a, b: b}
	q.seq++
	q.push(ev)
	return FlatID{slot: slot, gen: st.gen}, nil
}

// check is what scheduling an event of the given kind at absolute time at
// requires: a registered kind and a finite time no earlier than Now.
func (q *Queue) check(at float64, kind int32) error {
	if kind < 0 || int(kind) >= len(q.handlers) || q.handlers[kind] == nil {
		return fmt.Errorf("des: unregistered event kind %d", kind)
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return fmt.Errorf("des: non-finite event time %v", at)
	}
	if at < q.now {
		return fmt.Errorf("des: cannot schedule at %g, now is %g", at, q.now)
	}
	return nil
}

// Event is one event of a stream: a kind and its two arguments, at an
// absolute time.
type Event struct {
	At   float64
	Kind int32
	A, B int32
}

// Stream schedules evs as one ScheduleAt each in slice order would, but
// off the heap: each takes its sequence number now, and the queue reads
// evs, stable-sorted by time, merged with the heap as events fire.  The
// queue takes evs over: it sorts it in place and reads it until its
// events have fired or Reset, so the caller must not change it before.
// Streamed events cannot be cancelled.  A queue holds one stream at a
// time: while an earlier stream has events still to fire, Stream fails.
// Each event is checked as ScheduleAt checks it, in slice order, and the
// first failure is returned with ScheduleAt's error; nothing is scheduled
// on any failure.
func (q *Queue) Stream(evs []Event) error {
	if q.next < len(q.stream) {
		return fmt.Errorf("des: %d streamed events still pending", len(q.stream)-q.next)
	}
	for _, ev := range evs {
		if err := q.check(ev.At, ev.Kind); err != nil {
			return err
		}
	}
	// A stable sort keeps equal times in slice order, which is sequence
	// order: a streamed event's sequence number is sseq plus its position.
	slices.SortStableFunc(evs, func(x, y Event) int { return cmp.Compare(x.At, y.At) })
	q.stream, q.sseq, q.next = evs, q.seq, 0
	q.seq += uint64(len(evs))
	return nil
}

// streamed returns stream[i] as a heap entry, without a slot.
func (q *Queue) streamed(i int) entry {
	ev := &q.stream[i]
	return entry{at: ev.At, seq: q.sseq + uint64(i), kind: ev.Kind, a: ev.A, b: ev.B}
}

// ScheduleAfter schedules an event delay time units from now.
func (q *Queue) ScheduleAfter(delay float64, kind, a, b int32) (FlatID, error) {
	if delay < 0 {
		return FlatID{}, fmt.Errorf("des: negative delay %g", delay)
	}
	return q.ScheduleAt(q.now+delay, kind, a, b)
}

// Cancel marks a scheduled event dead; it will be skipped when reached.
// Cancelling the zero FlatID, an already-fired or an already-cancelled
// event is a no-op returning false.
func (q *Queue) Cancel(id FlatID) bool {
	if id.slot <= 0 || int(id.slot) > len(q.slots) {
		return false
	}
	st := &q.slots[id.slot-1]
	if st.gen != id.gen || !st.queued || st.dead {
		return false
	}
	st.dead = true
	q.dead++
	return true
}

// Stop halts the run loop after the current event completes.
func (q *Queue) Stop() { q.stopped = true }

// Run executes events in order until the queue drains or Stop is
// called.  It returns the number of events executed in this call.
func (q *Queue) Run() uint64 {
	return q.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= deadline, advancing the clock
// to each event's timestamp.  On return the clock rests at the last
// executed event (or min(deadline, next event time) if the deadline cut
// the run short with events remaining).
func (q *Queue) RunUntil(deadline float64) uint64 {
	q.stopped = false
	var ran uint64
	for !q.stopped {
		var at float64
		fromStream := q.streamLeads()
		switch {
		case fromStream:
			at = q.stream[q.next].At
		case len(q.heap) > 0:
			at = q.heap[0].at
		default:
			return ran
		}
		if at > deadline {
			if deadline > q.now && !math.IsInf(deadline, 1) {
				q.now = deadline
			}
			break
		}
		var ev entry
		if fromStream {
			ev = q.streamed(q.next)
			q.next++
		} else if ev = q.pop(); q.release(ev.slot) {
			continue
		}
		q.now = ev.at
		q.handlers[ev.kind](q, ev.a, ev.b)
		ran++
		q.executed++
	}
	return ran
}

// Step executes exactly one live event, returning false if none remain.
func (q *Queue) Step() bool {
	for {
		var ev entry
		switch {
		case q.streamLeads():
			ev = q.streamed(q.next)
			q.next++
		case len(q.heap) > 0:
			if ev = q.pop(); q.release(ev.slot) {
				continue
			}
		default:
			return false
		}
		q.now = ev.at
		q.handlers[ev.kind](q, ev.a, ev.b)
		q.executed++
		return true
	}
}

// streamLeads reports whether the stream's front is the next event by
// (time, sequence): the stream has one and it precedes the heap's top, or
// the heap is empty.
func (q *Queue) streamLeads() bool {
	if q.next >= len(q.stream) {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	s, h := &q.stream[q.next], &q.heap[0]
	return s.At < h.at || s.At == h.at && q.sseq+uint64(q.next) < h.seq
}

// release retires a popped event's slot, returning whether the event
// had been cancelled.  The slot's generation advances so stale FlatIDs
// can never cancel a recycled slot.
func (q *Queue) release(slot int32) (wasDead bool) {
	st := &q.slots[slot-1]
	wasDead = st.dead
	if wasDead {
		q.dead--
	}
	st.queued = false
	st.dead = false
	st.gen++
	q.free = append(q.free, slot)
	return wasDead
}

// 4-ary heap ordered by (at, seq): children of i sit at 4i+1..4i+4.

// less orders entries by time, then scheduling sequence (FIFO ties).
func less(x, y *entry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// push appends ev and sifts it up.
func (q *Queue) push(ev entry) {
	q.heap = append(q.heap, ev)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(&q.heap[i], &q.heap[parent]) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

// pop removes and returns the minimum entry.
func (q *Queue) pop() entry {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.heap = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

// siftDown restores heap order below index i.
func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if less(&h[c], &h[min]) {
				min = c
			}
		}
		if !less(&h[min], &h[i]) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
