package des

// The closure-per-event binary-heap kernel: Queue's oracle.
// flat_equiv_test.go and FuzzQueueEquivalence drive both with the same
// schedule/cancel/now interleavings and require identical fire orders;
// des_test.go and oracle_test.go pin this kernel's own contract.

import (
	"container/heap"
	"fmt"
	"math"
)

// Handler is the action an event performs.  It receives the simulator so
// it can schedule follow-up events.
type Handler func(sim *Simulator)

// event is a scheduled handler.
type event struct {
	at    float64
	seq   uint64
	fn    Handler
	index int // heap index, -1 once popped or cancelled
	dead  bool
}

// EventID allows cancelling a scheduled event.
type EventID struct{ ev *event }

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Simulator owns the virtual clock and the event queue.
type Simulator struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool

	executed uint64
}

// New returns a simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulated time.
func (s *Simulator) Now() float64 { return s.now }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int {
	n := 0
	for _, ev := range s.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Executed returns the number of events that have fired.
func (s *Simulator) Executed() uint64 { return s.executed }

// ScheduleAt schedules fn at absolute time at.  Scheduling in the past
// (before Now) is an error: the paper's model is causal.
func (s *Simulator) ScheduleAt(at float64, fn Handler) (EventID, error) {
	if fn == nil {
		return EventID{}, fmt.Errorf("des: nil handler")
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		return EventID{}, fmt.Errorf("des: non-finite event time %v", at)
	}
	if at < s.now {
		return EventID{}, fmt.Errorf("des: cannot schedule at %g, now is %g", at, s.now)
	}
	ev := &event{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, ev)
	return EventID{ev: ev}, nil
}

// ScheduleAfter schedules fn delay time units from now.
func (s *Simulator) ScheduleAfter(delay float64, fn Handler) (EventID, error) {
	if delay < 0 {
		return EventID{}, fmt.Errorf("des: negative delay %g", delay)
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// Cancel marks a scheduled event dead; it will be skipped when reached.
// Cancelling an already-fired or already-cancelled event is a no-op
// returning false.
func (s *Simulator) Cancel(id EventID) bool {
	if id.ev == nil || id.ev.dead || id.ev.index == -1 {
		return false
	}
	id.ev.dead = true
	return true
}

// Stop halts the run loop after the current event completes.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events in order until the queue drains or Stop is called.
// It returns the number of events executed in this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with time <= deadline, advancing the clock to
// each event's timestamp.  On return the clock rests at the last executed
// event (or min(deadline, next event time) if the deadline cut the run
// short with events remaining).
func (s *Simulator) RunUntil(deadline float64) uint64 {
	s.stopped = false
	var ran uint64
	for len(s.queue) > 0 && !s.stopped {
		next := s.queue[0]
		if next.at > deadline {
			// Clock advances to the deadline, not past it.
			if deadline > s.now && !math.IsInf(deadline, 1) {
				s.now = deadline
			}
			break
		}
		heap.Pop(&s.queue)
		if next.dead {
			continue
		}
		s.now = next.at
		next.fn(s)
		ran++
		s.executed++
	}
	return ran
}

// Step executes exactly one live event, returning false if none remain.
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		next := heap.Pop(&s.queue).(*event)
		if next.dead {
			continue
		}
		s.now = next.at
		next.fn(s)
		s.executed++
		return true
	}
	return false
}

// Periodic schedules fn every interval, starting one interval from now,
// until the returned cancel function is called or fn returns false.  The
// simulator's batch-mode meta-request ticks are exactly this pattern.
func (s *Simulator) Periodic(interval float64, fn func(sim *Simulator) bool) (cancel func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("des: non-positive period %g", interval)
	}
	if fn == nil {
		return nil, fmt.Errorf("des: nil periodic handler")
	}
	stopped := false
	var current EventID
	var tick Handler
	tick = func(sim *Simulator) {
		if stopped {
			return
		}
		if !fn(sim) {
			stopped = true
			return
		}
		id, err := sim.ScheduleAfter(interval, tick)
		if err != nil {
			// Re-arming can only fail on a non-finite interval sum;
			// treat as the end of the series.
			stopped = true
			return
		}
		current = id
	}
	id, err := s.ScheduleAfter(interval, tick)
	if err != nil {
		return nil, err
	}
	current = id
	return func() {
		stopped = true
		s.Cancel(current)
	}, nil
}
