package sim

import (
	"fmt"
	"math"
	"testing"

	"gridtrust/internal/sched"
	"gridtrust/internal/workload"
)

// TestArrivalTimesRunOrFailAsScheduledOneByOne pins what a run makes of
// arrival times a generator never produces — out of request order, equal,
// NaN, ±Inf, negative — on both run loops and in batch mode.  The run
// hands its arrivals to the event queue as one stream; the outcomes below
// were recorded when it scheduled them one ScheduleAt per request, in
// request order: a run's makespan and mean completion time as float64
// bits, or the error text of the first bad arrival in request order.
func TestArrivalTimesRunOrFailAsScheduledOneByOne(t *testing.T) {
	aware, err := sched.TrustAware(sched.DefaultTCWeight)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := map[string]func() Scenario{
		"table/mct": func() Scenario { return PaperScenario("mct", 40, workload.Inconsistent) },
		"event/purge": func() Scenario {
			sc := PaperScenario("mct", 40, workload.Inconsistent)
			sc.TrustModel = "purge"
			return sc
		},
		"batch/minmin": func() Scenario { return PaperScenario("minmin", 40, workload.Inconsistent) },
	}
	edits := map[string]func(r []workload.Request){
		"unsorted": func(r []workload.Request) {
			for i, j := 0, 11; i < j; i, j = i+1, j-1 {
				r[i].ArrivalAt, r[j].ArrivalAt = r[j].ArrivalAt, r[i].ArrivalAt
			}
			r[20].ArrivalAt = r[25].ArrivalAt
			r[30].ArrivalAt = r[2].ArrivalAt
		},
		"zero-and-ties": func(r []workload.Request) {
			for i := range r[:8] {
				r[i].ArrivalAt = 0
			}
		},
		"nan-first": func(r []workload.Request) {
			r[3].ArrivalAt = math.NaN()
			r[7].ArrivalAt = -1
		},
		"negative-first": func(r []workload.Request) {
			r[5].ArrivalAt = -1
			r[9].ArrivalAt = math.NaN()
		},
		"+inf": func(r []workload.Request) { r[12].ArrivalAt = math.Inf(1) },
		"-inf": func(r []workload.Request) { r[0].ArrivalAt = math.Inf(-1) },
	}
	want := map[string]string{
		"table/mct/unsorted":          "makespan 409f4e193ea5b104 mean 407aa2f30040d1ca",
		"table/mct/zero-and-ties":     "makespan 409de13b74e87090 mean 4077a95763c2a48d",
		"table/mct/nan-first":         "error: des: non-finite event time NaN",
		"table/mct/negative-first":    "error: des: cannot schedule at -1, now is 0",
		"table/mct/+inf":              "error: des: non-finite event time +Inf",
		"table/mct/-inf":              "error: des: non-finite event time -Inf",
		"event/purge/unsorted":        "makespan 409f4e193ea5b104 mean 407aa2f30040d1ca",
		"event/purge/zero-and-ties":   "makespan 409de13b74e87090 mean 4077a95763c2a48c",
		"event/purge/nan-first":       "error: des: non-finite event time NaN",
		"event/purge/negative-first":  "error: des: cannot schedule at -1, now is 0",
		"event/purge/+inf":            "error: des: non-finite event time +Inf",
		"event/purge/-inf":            "error: des: non-finite event time -Inf",
		"batch/minmin/unsorted":       "makespan 409f71f864f01d36 mean 407adee9aeeb5e18",
		"batch/minmin/zero-and-ties":  "makespan 409c1f2f65f0b2d8 mean 407a53035053d133",
		"batch/minmin/nan-first":      "error: des: non-finite event time NaN",
		"batch/minmin/negative-first": "error: des: cannot schedule at -1, now is 0",
		"batch/minmin/+inf":           "error: des: non-finite event time +Inf",
		"batch/minmin/-inf":           "error: des: non-finite event time -Inf",
	}
	for sname, mk := range scenarios {
		for ename, edit := range edits {
			name := sname + "/" + ename
			sc := mk()
			w := mustWorkload(t, sc, 31)
			edit(w.Requests)
			var got string
			res, err := Run(sc, w, aware)
			if err != nil {
				got = "error: " + err.Error()
			} else {
				got = fmt.Sprintf("makespan %016x mean %016x",
					math.Float64bits(res.Makespan), math.Float64bits(res.AvgCompletionTime))
			}
			if got != want[name] {
				t.Errorf("%s: %q, want %q", name, got, want[name])
			}
		}
	}
}
