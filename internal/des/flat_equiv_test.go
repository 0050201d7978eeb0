package des

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"gridtrust/internal/rng"
)

// This file proves the flat queue and the reference kernel interchangeable:
// the same program of schedule/cancel/run/step operations — including
// cancels and spawns performed from inside firing events — must produce
// identical fire order, fire times, clock positions, pending counts and
// executed counts on both.  FuzzQueueEquivalence (flat_fuzz_test.go) feeds
// the same harness with fuzzer-derived programs.
//
// A stream (Queue.Stream) is checked against the reference scheduling the
// same events one by one, in stream order, when the stream is installed:
// the reference checks every time first, since Stream schedules all or
// none, refuses a stream while an earlier one has events still to fire,
// and keeps no cancel handle, since streamed events cannot be cancelled.  A reset is a fresh reference Simulator, and on both kernels
// it forgets every cancel handle taken before it.

// Operation codes for equivalence programs.
const (
	opSchedule = iota // schedule an event at `at` (cancelAt/spawn attached)
	opCancel          // cancel the event with tag `target` from outside
	opRun             // RunUntil(at)
	opStep            // Step once
	opStream          // install stream: one event per entry, in entry order
	opReset           // Reset (a fresh Simulator on the reference)
)

// equivOp is one step of an equivalence program.
type equivOp struct {
	kind     int
	at       float64   // schedule: absolute fire time; run: deadline
	cancelAt int       // schedule: tag to cancel when this event fires, -1 none
	spawn    float64   // schedule: relative delay of a spawned follow-up, 0 none
	target   int       // cancel: tag to cancel
	stream   []equivOp // stream: one schedule op per streamed event
}

// tagsOf counts the tags a program's own ops take: one per schedule op and
// one per streamed event.  Spawned events are tagged after them.
func tagsOf(ops []equivOp) int {
	n := 0
	for _, o := range ops {
		switch o.kind {
		case opSchedule:
			n++
		case opStream:
			n += len(o.stream)
		}
	}
	return n
}

// streamOK reports whether every streamed time could be scheduled at now,
// checked before any is: Stream installs all of its events or none.
func streamOK(evs []equivOp, now float64) bool {
	for _, e := range evs {
		if math.IsNaN(e.at) || math.IsInf(e.at, 0) || e.at < now {
			return false
		}
	}
	return true
}

// fireRec is one observed firing.
type fireRec struct {
	tag int
	at  float64
}

// kernelObs is everything observable about a program execution.
type kernelObs struct {
	fired    []fireRec
	scheds   []bool // per schedule op: did ScheduleAt succeed
	cancels  []bool // per cancel op: Cancel's return
	runs     []uint64
	steps    []bool
	nows     []float64 // Now() after every op
	pendings []int     // Pending() after every op
	executed uint64
}

// runReferenceProgram executes ops on the closure-based Simulator.
func runReferenceProgram(ops []equivOp) kernelObs {
	var obs kernelObs
	s := New()
	var ids []EventID
	var schedule func(tag int, at float64, cancelAt int, spawn float64) bool
	nextSpawn := tagsOf(ops)
	// The current stream's events carry the tags [streamFrom, streamTo),
	// and streamLeft of them have yet to fire.
	streamFrom, streamTo, streamLeft := 0, 0, 0
	schedule = func(tag int, at float64, cancelAt int, spawn float64) bool {
		id, err := s.ScheduleAt(at, func(sim *Simulator) {
			obs.fired = append(obs.fired, fireRec{tag, sim.Now()})
			if tag >= streamFrom && tag < streamTo {
				streamLeft--
			}
			if cancelAt >= 0 && cancelAt < len(ids) {
				sim.Cancel(ids[cancelAt])
			}
			if spawn > 0 {
				tag := nextSpawn
				nextSpawn++
				// Spawned events carry no behaviour of their own; the
				// id list still records them so later cancels can hit.
				id, err := sim.ScheduleAfter(spawn, func(sim2 *Simulator) {
					obs.fired = append(obs.fired, fireRec{tag, sim2.Now()})
				})
				if err == nil {
					for len(ids) <= tag {
						ids = append(ids, EventID{})
					}
					ids[tag] = id
				}
			}
		})
		if err != nil {
			return false
		}
		for len(ids) <= tag {
			ids = append(ids, EventID{})
		}
		ids[tag] = id
		return true
	}
	tag := 0
	for _, o := range ops {
		switch o.kind {
		case opSchedule:
			obs.scheds = append(obs.scheds, schedule(tag, o.at, o.cancelAt, o.spawn))
			tag++
		case opCancel:
			ok := false
			if o.target >= 0 && o.target < len(ids) {
				ok = s.Cancel(ids[o.target])
			}
			obs.cancels = append(obs.cancels, ok)
		case opRun:
			obs.runs = append(obs.runs, s.RunUntil(o.at))
		case opStep:
			obs.steps = append(obs.steps, s.Step())
		case opStream:
			ok := streamLeft == 0 && streamOK(o.stream, s.Now())
			if ok {
				streamFrom, streamTo, streamLeft = tag, tag+len(o.stream), len(o.stream)
			}
			for _, e := range o.stream {
				if ok {
					schedule(tag, e.at, e.cancelAt, e.spawn)
				}
				for len(ids) <= tag {
					ids = append(ids, EventID{})
				}
				ids[tag] = EventID{}
				tag++
			}
			obs.scheds = append(obs.scheds, ok)
		case opReset:
			s = New()
			clear(ids)
			streamLeft = 0
		}
		obs.nows = append(obs.nows, s.Now())
		obs.pendings = append(obs.pendings, s.Pending())
	}
	obs.runs = append(obs.runs, s.Run())
	obs.nows = append(obs.nows, s.Now())
	obs.pendings = append(obs.pendings, s.Pending())
	obs.executed = s.Executed()
	return obs
}

// runFlatProgram executes the same ops on the flat queue, with event
// behaviour (cancel target, spawn delay) carried in side tables indexed
// by the event's tag instead of captured in closures.
func runFlatProgram(ops []equivOp) kernelObs {
	var obs kernelObs
	q := NewQueue()
	var (
		ids      []FlatID
		cancelOf []int
		spawnOf  []float64
	)
	nextSpawn := tagsOf(ops)
	grow := func(tag int) {
		for len(ids) <= tag {
			ids = append(ids, FlatID{})
			cancelOf = append(cancelOf, -1)
			spawnOf = append(spawnOf, 0)
		}
	}
	var kind int32
	handler := func(q *Queue, a, _ int32) {
		tag := int(a)
		obs.fired = append(obs.fired, fireRec{tag, q.Now()})
		if c := cancelOf[tag]; c >= 0 && c < len(ids) {
			q.Cancel(ids[c])
		}
		if sp := spawnOf[tag]; sp > 0 {
			stag := nextSpawn
			nextSpawn++
			grow(stag)
			id, err := q.ScheduleAfter(sp, kind, int32(stag), 0)
			if err == nil {
				ids[stag] = id
			}
		}
	}
	kind = q.RegisterKind(handler)
	tag := 0
	for _, o := range ops {
		switch o.kind {
		case opSchedule:
			grow(tag)
			cancelOf[tag] = o.cancelAt
			spawnOf[tag] = o.spawn
			id, err := q.ScheduleAt(o.at, kind, int32(tag), 0)
			if err == nil {
				ids[tag] = id
			}
			obs.scheds = append(obs.scheds, err == nil)
			tag++
		case opCancel:
			ok := false
			if o.target >= 0 && o.target < len(ids) {
				ok = q.Cancel(ids[o.target])
			}
			obs.cancels = append(obs.cancels, ok)
		case opRun:
			obs.runs = append(obs.runs, q.RunUntil(o.at))
		case opStep:
			obs.steps = append(obs.steps, q.Step())
		case opStream:
			var evs []Event
			for _, e := range o.stream {
				grow(tag)
				cancelOf[tag] = e.cancelAt
				spawnOf[tag] = e.spawn
				evs = append(evs, Event{At: e.at, Kind: kind, A: int32(tag)})
				tag++
			}
			obs.scheds = append(obs.scheds, q.Stream(evs) == nil)
		case opReset:
			q.Reset()
			kind = q.RegisterKind(handler)
			clear(ids)
		}
		obs.nows = append(obs.nows, q.Now())
		obs.pendings = append(obs.pendings, q.Pending())
	}
	obs.runs = append(obs.runs, q.Run())
	obs.nows = append(obs.nows, q.Now())
	obs.pendings = append(obs.pendings, q.Pending())
	obs.executed = q.Executed()
	return obs
}

// checkEquivProgram runs ops on both kernels and reports any divergence.
func checkEquivProgram(t testing.TB, ops []equivOp) {
	t.Helper()
	ref := runReferenceProgram(ops)
	flat := runFlatProgram(ops)
	if len(ref.fired) != len(flat.fired) {
		t.Fatalf("fired %d events on reference, %d on flat\nops: %+v", len(ref.fired), len(flat.fired), ops)
	}
	for i := range ref.fired {
		if ref.fired[i] != flat.fired[i] {
			t.Fatalf("fire %d diverges: reference %+v, flat %+v\nops: %+v", i, ref.fired[i], flat.fired[i], ops)
		}
	}
	for i := range ref.scheds {
		if ref.scheds[i] != flat.scheds[i] {
			t.Fatalf("schedule %d: reference ok=%v, flat ok=%v", i, ref.scheds[i], flat.scheds[i])
		}
	}
	for i := range ref.cancels {
		if ref.cancels[i] != flat.cancels[i] {
			t.Fatalf("cancel %d: reference %v, flat %v", i, ref.cancels[i], flat.cancels[i])
		}
	}
	for i := range ref.runs {
		if ref.runs[i] != flat.runs[i] {
			t.Fatalf("run %d executed %d on reference, %d on flat", i, ref.runs[i], flat.runs[i])
		}
	}
	for i := range ref.steps {
		if ref.steps[i] != flat.steps[i] {
			t.Fatalf("step %d: reference %v, flat %v", i, ref.steps[i], flat.steps[i])
		}
	}
	for i := range ref.nows {
		if ref.nows[i] != flat.nows[i] {
			t.Fatalf("clock after op %d: reference %g, flat %g", i, ref.nows[i], flat.nows[i])
		}
	}
	for i := range ref.pendings {
		if ref.pendings[i] != flat.pendings[i] {
			t.Fatalf("pending after op %d: reference %d, flat %d", i, ref.pendings[i], flat.pendings[i])
		}
	}
	if ref.executed != flat.executed {
		t.Fatalf("executed: reference %d, flat %d", ref.executed, flat.executed)
	}
}

// randomEquivProgram draws a program heavy on equal timestamps (times are
// small quarter-integers) so the FIFO tie-break is constantly exercised.
// With streams, it also installs streams, sorted or not, and resets.
func randomEquivProgram(src *rng.Source, streams bool) []equivOp {
	n := 1 + src.Intn(60)
	ops := make([]equivOp, 0, n)
	scheduled := 0
	for i := 0; i < n; i++ {
		switch {
		case streams && src.Bool(0.15):
			op := equivOp{kind: opStream}
			for k := src.Intn(12); k > 0; k-- {
				e := equivOp{kind: opSchedule, at: float64(src.Intn(48)) / 4, cancelAt: -1}
				if scheduled > 0 && src.Bool(0.2) {
					e.cancelAt = src.Intn(scheduled)
				}
				if src.Bool(0.3) {
					e.spawn = float64(src.Intn(16)) / 4
				}
				op.stream = append(op.stream, e)
				scheduled++
			}
			if src.Bool(0.7) {
				slices.SortStableFunc(op.stream, func(a, b equivOp) int { return cmp.Compare(a.at, b.at) })
			}
			ops = append(ops, op)
		case streams && src.Bool(0.03):
			ops = append(ops, equivOp{kind: opReset})
		case scheduled == 0 || src.Bool(0.55):
			op := equivOp{kind: opSchedule, at: float64(src.Intn(48)) / 4, cancelAt: -1}
			if scheduled > 0 && src.Bool(0.25) {
				op.cancelAt = src.Intn(scheduled)
			}
			if src.Bool(0.3) {
				op.spawn = float64(src.Intn(16)) / 4
			}
			ops = append(ops, op)
			scheduled++
		case src.Bool(0.35):
			ops = append(ops, equivOp{kind: opCancel, target: src.Intn(scheduled + 2)})
		case src.Bool(0.5):
			ops = append(ops, equivOp{kind: opRun, at: float64(src.Intn(40)) / 4})
		default:
			ops = append(ops, equivOp{kind: opStep})
		}
	}
	return ops
}

// TestFlatQueueEquivalence property-checks the flat queue against the
// reference kernel over randomized interleavings.
func TestFlatQueueEquivalence(t *testing.T) {
	src := rng.New(20260807)
	for trial := 0; trial < 300; trial++ {
		checkEquivProgram(t, randomEquivProgram(src, false))
	}
	for trial := 0; trial < 300; trial++ {
		checkEquivProgram(t, randomEquivProgram(src, true))
	}
}

// TestFlatQueueEquivalenceDirected pins the corner cases the random
// generator might under-sample.
func TestFlatQueueEquivalenceDirected(t *testing.T) {
	cases := [][]equivOp{
		// Equal-timestamp FIFO across a cancel hole.
		{
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opCancel, target: 1},
			{kind: opRun, at: 2},
		},
		// Cancel from inside a same-timestamp event.
		{
			{kind: opSchedule, at: 1, cancelAt: 1},
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opRun, at: 5},
		},
		// Spawn at zero-ish delay, then cancel the spawner's victim twice.
		{
			{kind: opSchedule, at: 0, cancelAt: -1, spawn: 0.25},
			{kind: opCancel, target: 0},
			{kind: opCancel, target: 0},
			{kind: opRun, at: 10},
		},
		// Deadline rests between events; scheduling resumes after.
		{
			{kind: opSchedule, at: 4, cancelAt: -1},
			{kind: opRun, at: 2},
			{kind: opSchedule, at: 3, cancelAt: -1},
			{kind: opRun, at: 8},
		},
		// Step through a cancelled head.
		{
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opSchedule, at: 2, cancelAt: -1},
			{kind: opCancel, target: 0},
			{kind: opStep},
			{kind: opStep},
		},
		// Past-time schedule must fail identically on both kernels.
		{
			{kind: opSchedule, at: 3, cancelAt: -1},
			{kind: opRun, at: 5},
			{kind: opSchedule, at: 1, cancelAt: -1},
		},
		// A stream after heap events, with ties on both sides, stepped.
		{
			{kind: opSchedule, at: 1, cancelAt: -1},
			{kind: opSchedule, at: 2, cancelAt: -1},
			{kind: opStream, stream: []equivOp{{at: 1, cancelAt: -1}, {at: 2, cancelAt: 1}, {at: 3, cancelAt: -1, spawn: 0.5}}},
			{kind: opSchedule, at: 2, cancelAt: -1},
			{kind: opStep},
			{kind: opStep},
			{kind: opStep},
		},
		// RunUntil to a deadline between stream times, then to one equal
		// to a stream time.
		{
			{kind: opStream, stream: []equivOp{{at: 1, cancelAt: -1}, {at: 2, cancelAt: -1}, {at: 4, cancelAt: -1}}},
			{kind: opRun, at: 1.5},
			{kind: opRun, at: 4},
			{kind: opSchedule, at: 5, cancelAt: -1},
		},
		// An unsorted stream fires in time order, ties in stream order.
		{
			{kind: opStream, stream: []equivOp{{at: 3, cancelAt: -1}, {at: 1, cancelAt: -1}, {at: 3, cancelAt: -1}, {at: 1, cancelAt: -1}}},
			{kind: opRun, at: 10},
		},
		// A stream with a past time schedules nothing; a second stream
		// is refused while the first has events to fire and accepted once
		// it has none.
		{
			{kind: opStream, stream: []equivOp{{at: 2, cancelAt: -1}}},
			{kind: opRun, at: 3},
			{kind: opStream, stream: []equivOp{{at: 4, cancelAt: -1}, {at: 1, cancelAt: -1}}},
			{kind: opStream, stream: []equivOp{{at: 6, cancelAt: -1}, {at: 5, cancelAt: -1}}},
			{kind: opStream, stream: []equivOp{{at: 7, cancelAt: -1}}},
			{kind: opStep},
			{kind: opStream, stream: []equivOp{{at: 7, cancelAt: -1}}},
			{kind: opStep},
			{kind: opStream, stream: []equivOp{{at: 8, cancelAt: -1}}},
			{kind: opRun, at: 10},
		},
		// Reset drops the stream and the heap; the queue starts over.
		{
			{kind: opSchedule, at: 2, cancelAt: -1},
			{kind: opStream, stream: []equivOp{{at: 1, cancelAt: -1}, {at: 3, cancelAt: -1}}},
			{kind: opStep},
			{kind: opReset},
			{kind: opCancel, target: 0},
			{kind: opStream, stream: []equivOp{{at: 0, cancelAt: -1}}},
			{kind: opRun, at: 1},
		},
	}
	for i, ops := range cases {
		i, ops := i, ops
		t.Run("", func(t *testing.T) {
			_ = i
			checkEquivProgram(t, ops)
		})
	}
}

// TestFlatQueueNonFinite checks the validation parity the programs above
// cannot express.
func TestFlatQueueNonFinite(t *testing.T) {
	q := NewQueue()
	kind := q.RegisterKind(func(*Queue, int32, int32) {})
	if _, err := q.ScheduleAt(math.NaN(), kind, 0, 0); err == nil {
		t.Fatal("NaN time accepted")
	}
	if _, err := q.ScheduleAt(math.Inf(1), kind, 0, 0); err == nil {
		t.Fatal("infinite time accepted")
	}
	if _, err := q.ScheduleAfter(-1, kind, 0, 0); err == nil {
		t.Fatal("negative delay accepted")
	}
	if _, err := q.ScheduleAt(1, kind+1, 0, 0); err == nil {
		t.Fatal("unregistered kind accepted")
	}
	if q.Cancel(FlatID{}) {
		t.Fatal("zero FlatID cancelled something")
	}
}

// TestFlatQueueReset checks that a recycled queue behaves like a fresh one.
func TestFlatQueueReset(t *testing.T) {
	src := rng.New(42)
	q := NewQueue()
	for trial := 0; trial < 20; trial++ {
		q.Reset()
		var fired []int
		kind := q.RegisterKind(func(q *Queue, a, _ int32) { fired = append(fired, int(a)) })
		n := 1 + src.Intn(30)
		want := make([]int, n)
		for i := 0; i < n; i++ {
			if _, err := q.ScheduleAt(float64(i%7), kind, int32(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		// FIFO within equal times: sort by (time, insertion order).
		idx := 0
		for tm := 0; tm < 7; tm++ {
			for i := 0; i < n; i++ {
				if i%7 == tm {
					want[idx] = i
					idx++
				}
			}
		}
		if got := q.Run(); got != uint64(n) {
			t.Fatalf("trial %d: ran %d of %d", trial, got, n)
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: fired %v, want %v", trial, fired, want)
			}
		}
		lastTime := 6.0
		if n < 7 {
			lastTime = float64(n - 1)
		}
		if q.Now() != lastTime || q.Pending() != 0 {
			t.Fatalf("trial %d: now=%g pending=%d after drain", trial, q.Now(), q.Pending())
		}
	}
}
