package grid

import (
	"fmt"
	"strconv"
)

// Activity identifies a type of activity (ToA) a client may engage in on a
// resource.  "Some example activities a task can engage at an RD include
// printing, storing data, and using display services" (Section 3.1).
// Activities are small integers so they can index per-activity trust rows.
type Activity int

// The built-in activity vocabulary.  The model is open-ended: any Activity
// value >= 0 is legal, and NumBuiltinActivities merely names the defaults
// used by the paper-style workload generator (which draws composed ToAs of
// 1-4 activities).
const (
	ActCompute Activity = iota // executing programs
	ActStorage                 // storing data
	ActPrint                   // printing
	ActDisplay                 // using display services
	ActNetwork                 // outbound network access

	NumBuiltinActivities = 5
)

var activityNames = [...]string{
	ActCompute: "compute",
	ActStorage: "storage",
	ActPrint:   "print",
	ActDisplay: "display",
	ActNetwork: "network",
}

// String names built-in activities and falls back to a numeric form.
func (a Activity) String() string {
	if a >= 0 && int(a) < len(activityNames) {
		return activityNames[a]
	}
	return string(a.append(nil))
}

// append appends String's rendering of a to b.
func (a Activity) append(b []byte) []byte {
	if a >= 0 && int(a) < len(activityNames) {
		return append(b, activityNames[a]...)
	}
	return append(strconv.AppendInt(append(b, "activity("...), int64(a), 10), ')')
}

// Valid reports whether the activity identifier is usable (non-negative).
func (a Activity) Valid() bool { return a >= 0 }

// ToA is a type-of-activity request: atomic (one activity) or composed
// (multiple).  "A client with an atomic ToA requires just one activity
// whereas a client with a composed ToA requires multiple activities"
// (Section 3.1).  The paper's workloads use 1-4 activities per request.
type ToA struct {
	Activities []Activity
}

// NewToA builds a ToA, rejecting empty or invalid activity sets.
func NewToA(activities ...Activity) (ToA, error) {
	if len(activities) == 0 {
		return ToA{}, fmt.Errorf("grid: a ToA requires at least one activity")
	}
	for _, a := range activities {
		if !a.Valid() {
			return ToA{}, fmt.Errorf("grid: invalid activity %d in ToA", int(a))
		}
	}
	out := make([]Activity, len(activities))
	copy(out, activities)
	return ToA{Activities: out}, nil
}

// MustToA is NewToA that panics, for literals in tests and examples.
func MustToA(activities ...Activity) ToA {
	t, err := NewToA(activities...)
	if err != nil {
		panic(err)
	}
	return t
}

// Atomic reports whether the ToA consists of a single activity.
func (t ToA) Atomic() bool { return len(t.Activities) == 1 }

// String renders e.g. "{compute+storage}".
func (t ToA) String() string { return string(t.Append(nil)) }

// Append appends String's rendering of t to b.
func (t ToA) Append(b []byte) []byte {
	b = append(b, '{')
	for i, a := range t.Activities {
		if i > 0 {
			b = append(b, '+')
		}
		b = a.append(b)
	}
	return append(b, '}')
}
