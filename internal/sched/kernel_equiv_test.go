package sched

import (
	"math"
	"testing"
	"testing/quick"

	"gridtrust/internal/rng"
)

// The incremental kernels must emit *identical* assignment sequences to
// the naive reference implementations — same requests, same machines, same
// decision completions, same order — on every instance, including
// tie-heavy and single-machine ones.  These tests are the contract that
// licenses every optimisation in kernel.go.

// equivPolicies are the three cost policies the repo ships.
func equivPolicies() []Policy {
	return []Policy{
		MustTrustAware(DefaultTCWeight),
		MustTrustUnaware(DefaultFlatOverheadPct),
		MustTrustBlind(DefaultTCWeight),
	}
}

// rowPolicies adds the decision form no shipped policy has to
// equivPolicies, so the row path of kernelState.fill is compared under
// every ESCForm: linear (aware), zero (unaware, blind) and flat.
func rowPolicies() []Policy {
	flat := ESC{ESCFlat, DefaultFlatOverheadPct}
	return append(equivPolicies(), Policy{Name: "flat-aware", decision: flat, charged: flat})
}

// rowInstance is a RowCosts fixture: machines fall into groups and the
// trust cost depends on the machine only through its group, the shape
// internal/sim's RD-indexed table has.
type rowInstance struct {
	exec [][]float64 // [request][machine]
	tcs  [][]int     // [request][group]
	idx  []int32     // machine -> group
}

func (c *rowInstance) NumRequests() int     { return len(c.exec) }
func (c *rowInstance) NumMachines() int     { return len(c.idx) }
func (c *rowInstance) EEC(r, m int) float64 { return c.exec[r][m] }
func (c *rowInstance) TrustCost(r, m int) (int, error) {
	return c.tcs[r][c.idx[m]], nil
}
func (c *rowInstance) MachineIndex() []int32 { return c.idx }
func (c *rowInstance) CostRows(r int) ([]float64, []int) {
	return c.exec[r], c.tcs[r]
}

// cellsOnly hides the row methods, forcing the per-cell path.
type cellsOnly struct{ Costs }

// grouped folds a dense instance into a rowInstance over the given
// number of groups: machine m joins group pick(m), and a request's cost
// on a group is its dense cost on the machine of that index.
func grouped(c *MatrixCosts, groups int, pick func(m int) int) *rowInstance {
	rc := &rowInstance{exec: c.Exec, idx: make([]int32, c.NumMachines())}
	if groups > c.NumMachines() {
		groups = c.NumMachines()
	}
	for m := range rc.idx {
		rc.idx[m] = int32(pick(m) % groups)
	}
	for _, row := range c.TC {
		rc.tcs = append(rc.tcs, row[:groups])
	}
	return rc
}

// assertRowFillIdentical fills the decision table through the row path
// and through the per-cell path and requires bit-identical entries.
func assertRowFillIdentical(t *testing.T, rc *rowInstance, p Policy, reqs []int, avail []float64) {
	t.Helper()
	var rows, cells kernelState
	if err := rows.fill(rc, p, reqs, avail); err != nil {
		t.Fatal(err)
	}
	if err := cells.fill(cellsOnly{rc}, p, reqs, avail); err != nil {
		t.Fatal(err)
	}
	for k := range cells.table {
		if math.Float64bits(rows.table[k]) != math.Float64bits(cells.table[k]) {
			t.Fatalf("%s: decision ECC %d is %v by rows, %v by cells", p.Name, k, rows.table[k], cells.table[k])
		}
	}
}

// assertSameSchedule fails unless the two schedules are element-wise
// identical (exact float equality: the kernels perform the same arithmetic
// in the same order, so results must be bit-equal).
func assertSameSchedule(t *testing.T, label string, got, want []Assignment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: optimized emitted %d assignments, reference %d", label, len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("%s: assignment %d differs: optimized %+v, reference %+v",
				label, k, got[k], want[k])
		}
	}
}

// checkEquivalence runs all three kernels against their references on one
// instance.
func checkEquivalence(t *testing.T, c Costs, p Policy, reqs []int, avail []float64) {
	t.Helper()
	refMin, err1 := referenceMinMaxMin(c, p, reqs, avail, false)
	optMin, err2 := (MinMin{}).AssignBatch(c, p, reqs, avail)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Min-min error mismatch: reference %v, optimized %v", err1, err2)
	}
	if err1 == nil {
		assertSameSchedule(t, "Min-min", optMin, refMin)
	}

	refMax, err1 := referenceMinMaxMin(c, p, reqs, avail, true)
	optMax, err2 := (MaxMin{}).AssignBatch(c, p, reqs, avail)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Max-min error mismatch: reference %v, optimized %v", err1, err2)
	}
	if err1 == nil {
		assertSameSchedule(t, "Max-min", optMax, refMax)
	}

	refSuf, err1 := referenceSufferage(c, p, reqs, avail)
	optSuf, err2 := (Sufferage{}).AssignBatch(c, p, reqs, avail)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("Sufferage error mismatch: reference %v, optimized %v", err1, err2)
	}
	if err1 == nil {
		assertSameSchedule(t, "Sufferage", optSuf, refSuf)
	}
}

// TestKernelEquivalenceRandom drives randomized instances of varied shape
// through every kernel under every policy.
func TestKernelEquivalenceRandom(t *testing.T) {
	src := rng.New(20260805)
	for trial := 0; trial < 150; trial++ {
		tasks := 1 + src.Intn(48)
		machines := 1 + src.Intn(12)
		c := randomInstance(src, tasks, machines)
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = src.Float64() * 200
		}
		for _, p := range equivPolicies() {
			checkEquivalence(t, c, p, reqRange(tasks), avail)
		}
	}
}

// TestKernelEquivalenceRows drives row-providing instances through every
// kernel: the row path must fill the table the per-cell path fills, bit
// for bit, and the schedules must match the references', under every
// decision form.
func TestKernelEquivalenceRows(t *testing.T) {
	src := rng.New(20261001)
	for trial := 0; trial < 120; trial++ {
		tasks := 1 + src.Intn(40)
		machines := 1 + src.Intn(14)
		rc := grouped(randomInstance(src, tasks, machines), 1+src.Intn(4), func(int) int { return src.Intn(4) })
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = src.Float64() * 200
		}
		reqs := reqRange(tasks)
		src.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		reqs = reqs[:1+src.Intn(tasks)]
		for _, p := range rowPolicies() {
			assertRowFillIdentical(t, rc, p, reqs, avail)
			checkEquivalence(t, rc, p, reqs, avail)
		}
	}
}

// TestMalformedRowsAreErrors hands the kernels row instances whose shape
// is wrong in each way the row path indexes by: they must fail with an
// error, like a failing TrustCost on the per-cell path, never panic.
func TestMalformedRowsAreErrors(t *testing.T) {
	exec := [][]float64{{1, 2, 3}, {4, 5, 6}}
	for name, rc := range map[string]*rowInstance{
		"index past the trust costs": {exec: exec, tcs: [][]int{{1, 2}, {3, 4}}, idx: []int32{0, 2, 1}},
		"negative index":             {exec: exec, tcs: [][]int{{1, 2}, {3, 4}}, idx: []int32{0, -1, 1}},
		"one short trust-cost row":   {exec: exec, tcs: [][]int{{1, 2}, {3}}, idx: []int32{0, 1, 1}},
		"short EEC row":              {exec: [][]float64{{1, 2, 3}, {4, 5}}, tcs: [][]int{{1}, {2}}, idx: []int32{0, 0, 0}},
	} {
		for _, h := range []Batch{MinMin{}, MaxMin{}, Sufferage{}} {
			if _, err := h.AssignBatch(rc, MustTrustAware(DefaultTCWeight), reqRange(2), make([]float64, 3)); err == nil {
				t.Errorf("%s: %s scheduled a malformed instance", name, h.Name())
			}
		}
	}
}

// TestKernelEquivalenceTieHeavy draws EECs from a tiny integer set with
// zero trust cost so duplicate completion times are everywhere; the
// kernels must break every tie exactly as the references do.
func TestKernelEquivalenceTieHeavy(t *testing.T) {
	src := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		tasks := 1 + src.Intn(24)
		machines := 1 + src.Intn(8)
		exec := make([][]float64, tasks)
		for i := range exec {
			exec[i] = make([]float64, machines)
			for m := range exec[i] {
				exec[i][m] = float64(1 + src.Intn(3))
			}
		}
		c, err := NewMatrixCosts(exec, nil)
		if err != nil {
			t.Fatal(err)
		}
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = float64(src.Intn(4))
		}
		p := MustTrustUnaware(DefaultFlatOverheadPct)
		checkEquivalence(t, c, p, reqRange(tasks), avail)
	}
}

// TestKernelEquivalenceDegenerate pins the adversarial shapes named in the
// kernel contract: single machine, single task, constant matrix, and a
// request subset in permuted order.
func TestKernelEquivalenceDegenerate(t *testing.T) {
	p := MustTrustAware(DefaultTCWeight)

	// Single machine: Sufferage's second-best is +Inf.
	single, err := NewMatrixCosts([][]float64{{3}, {5}, {1}, {5}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, single, p, reqRange(4), []float64{2})

	// Constant matrix: every completion ties with every other.
	flat, err := NewMatrixCosts([][]float64{{7, 7, 7}, {7, 7, 7}, {7, 7, 7}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, flat, p, reqRange(3), []float64{0, 0, 0})

	// Permuted subset: the meta-request need not be 0..n-1 in order.
	src := rng.New(5)
	c := randomInstance(src, 12, 4)
	reqs := []int{9, 2, 11, 0, 5, 7}
	checkEquivalence(t, c, p, reqs, []float64{1, 0, 3, 0})

	// Single task.
	checkEquivalence(t, c, p, []int{4}, []float64{0, 9, 0, 1})
}

// TestKernelEquivalenceQuick is a testing/quick property over packed
// random instances, complementing the table-driven trials above.
func TestKernelEquivalenceQuick(t *testing.T) {
	src := rng.New(424242)
	f := func(tasksRaw, machinesRaw, availRaw uint8) bool {
		tasks := int(tasksRaw%20) + 1
		machines := int(machinesRaw%6) + 1
		c := randomInstance(src, tasks, machines)
		avail := make([]float64, machines)
		for m := range avail {
			avail[m] = float64(availRaw%8) * src.Float64()
		}
		p := MustTrustAware(DefaultTCWeight)
		refMin, err := referenceMinMaxMin(c, p, reqRange(tasks), avail, false)
		if err != nil {
			return false
		}
		optMin, err := (MinMin{}).AssignBatch(c, p, reqRange(tasks), avail)
		if err != nil || len(optMin) != len(refMin) {
			return false
		}
		for k := range refMin {
			if optMin[k] != refMin[k] {
				return false
			}
		}
		refSuf, err := referenceSufferage(c, p, reqRange(tasks), avail)
		if err != nil {
			return false
		}
		optSuf, err := (Sufferage{}).AssignBatch(c, p, reqRange(tasks), avail)
		if err != nil || len(optSuf) != len(refSuf) {
			return false
		}
		for k := range refSuf {
			if optSuf[k] != refSuf[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignBatchIntoReusesBuffer verifies the Into entry points append
// into the supplied slice (no fresh backing array when capacity suffices)
// and still match AssignBatch.
func TestAssignBatchIntoReusesBuffer(t *testing.T) {
	src := rng.New(13)
	c := randomInstance(src, 30, 6)
	avail := make([]float64, 6)
	p := MustTrustAware(DefaultTCWeight)
	for _, h := range []BatchInto{MinMin{}, MaxMin{}, Sufferage{}, Duplex{}} {
		plain, err := h.(Batch).AssignBatch(c, p, reqRange(30), avail)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Assignment, 0, 64)
		into, err := h.AssignBatchInto(c, p, reqRange(30), avail, buf)
		if err != nil {
			t.Fatal(err)
		}
		if &into[0] != &buf[:1][0] {
			t.Fatalf("%s: AssignBatchInto did not reuse the supplied buffer", h.(Batch).Name())
		}
		assertSameSchedule(t, h.(Batch).Name()+" Into", into, plain)
	}
}

// TestKernelSteadyStateAllocs asserts the zero-allocation contract of the
// Into entry points once buffers are warm.
func TestKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; alloc counts are meaningless")
	}
	src := rng.New(99)
	c := randomInstance(src, 64, 8)
	avail := make([]float64, 8)
	reqs := reqRange(64)
	p := MustTrustAware(DefaultTCWeight)
	for _, h := range []BatchInto{MinMin{}, MaxMin{}, Sufferage{}, Duplex{}} {
		buf := make([]Assignment, 0, 64)
		// Warm the kernel pool (and Duplex's aux pool) first.
		if _, err := h.AssignBatchInto(c, p, reqs, avail, buf); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			out, err := h.AssignBatchInto(c, p, reqs, avail, buf)
			if err != nil {
				t.Fatal(err)
			}
			_ = out
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", h.(Batch).Name(), allocs)
		}
	}
}
