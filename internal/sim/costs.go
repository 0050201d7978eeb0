// Package sim orchestrates the paper's discrete-event experiments
// (Section 5.3): it materialises workloads, drives the immediate- and
// batch-mode TRM schedulers over the DES kernel, collects the metrics of
// Tables 4-9 (average completion time, machine utilization), and runs
// paired trust-aware vs trust-unaware comparisons across many seeded
// replications in a parallel worker pool.
package sim

import (
	"fmt"
	"math/bits"
	"slices"

	"gridtrust/internal/grid"
	"gridtrust/internal/workload"
)

// workloadCosts adapts a workload.Workload to sched.Costs.
//
// Trust is kept between domains: a trust cost is a function of the
// request's profile (CD, RTL, ToA) and the machine's resource domain,
// never of the machine itself.  The adapter stores exactly that function
// — one row of #RDs costs per distinct profile, plus the machine → RD
// slot map — and never expands it over machines, so its memory is
// O(profiles × RDs + machines) and building it reads the table once.  A
// 1M-request stream carries at most |CDs| × |RTLs| × |ordered ToAs|
// profiles (4 × 6 × 205 = 4920 in the paper's configuration).
type workloadCosts struct {
	w *workload.Workload

	// Resource-domain slots: the RDs that own a machine, numbered densely
	// in order of first appearance in w.MachineRD.
	rdOf    []int32           // machine -> slot
	slotRD  []grid.DomainID   // slot -> resource domain
	slotAt  []int32           // slot -> its first machine
	slotLen []int32           // slot -> number of machines
	slotRTL []grid.TrustLevel // slot -> its resource domain's RTL

	// Askers: requests with the same (CD, ordered ToA).  A trust model
	// scores (CD, RD, context), its context being the ToA's rendering,
	// and the table's OTL is a min over the same CD's activities, so both
	// are functions of the asker and the slot.  Contexts are the distinct
	// ordered ToAs, numbered by first appearance.
	askCD  []grid.DomainID // asker -> its client domain
	askCtx []int32         // asker -> its context
	ctxReq []int32         // context -> its first request
	otl    []int8          // the table's OTL per (asker, slot), row stride len(slotRD) (A-E fit a byte)

	// Request profiles: requests with the same asker and client RTL share
	// a row.  The table ignores activity order but a trust model's
	// context keeps it, so one key serves the table and modelView alike.
	tc      []int   // TC per (profile, slot), row stride len(slotRD)
	rowOf   []int32 // request -> profile
	rowReq  []int32 // profile -> its first request
	rowSize []int32 // profile -> number of requests
	askOf   []int32 // profile -> its asker
	ctxOf   []int32 // profile -> its asker's context

	// tcAt holds grid.TrustCostWith per (slot, client RTL A-F, OTL A-E),
	// -1 until first priced; the build and modelView price through it.
	tcAt []int8
}

// Dimensions of the dense (asker, client RTL) and (slot, RTL, OTL) tables.
const (
	rtlSpan = int(grid.LevelF)                          // client RTLs A-F index an asker's profiles
	tcSpan  = int(grid.LevelF) * int(grid.MaxOfferable) // (RTL A-F, OTL A-E) pairs per slot
	fnvSeed = uint64(14695981039346656037)              // FNV-1a offset basis
	fibMul  = uint64(0x9e3779b97f4a7c15)                // 2^64 / golden ratio, spreads a hash over the high bits
)

// interner numbers keys in order of first appearance by open addressing
// over a 64-bit hash.  Keys whose hashes collide are told apart by the
// caller, against the key's first occurrence.
type interner struct {
	cells []int32  // key + 1 per cell, 0 when empty; len is a power of two
	hash  []uint64 // key -> its hash
	shift uint     // 64 − log2(len(cells))
	keep  uint64   // the hash bits used; all of them but in tests
}

// pieces returns the lists of an interner for about hint keys, to carve.
func (t *interner) pieces(hint int) (piece[int32], piece[uint64]) {
	n := 8
	for n < 2*hint {
		n <<= 1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	return filled(&t.cells, n), empty(&t.hash, hint)
}

// probe returns key k of hash h for which same reports true, or -1 and
// the empty cell where it would go.
func (t *interner) probe(h uint64, same func(k int32) bool) (k int32, cell int) {
	mask := len(t.cells) - 1
	for i := int((h * fibMul) >> t.shift); ; i = (i + 1) & mask {
		c := t.cells[i]
		if c == 0 {
			return -1, i
		}
		if t.hash[c-1] == h && same(c-1) {
			return c - 1, i
		}
	}
}

// find returns the key of hash h for which same reports true, or adds one
// and returns it with added set.
func (t *interner) find(h uint64, same func(k int32) bool) (k int32, added bool) {
	h &= t.keep
	k, cell := t.probe(h, same)
	if k >= 0 {
		return k, false
	}
	k = int32(len(t.hash))
	t.cells[cell] = k + 1
	t.hash = append(t.hash, h)
	if 2*len(t.hash) > len(t.cells) {
		t.cells = make([]int32, 2*len(t.cells))
		t.shift--
		mask := len(t.cells) - 1
		for k, h := range t.hash {
			i := int((h * fibMul) >> t.shift)
			for t.cells[i] != 0 {
				i = (i + 1) & mask
			}
			t.cells[i] = int32(k) + 1
		}
	}
	return k, true
}

// mix folds v into an FNV-1a hash.
func mix(h uint64, v int) uint64 { return (h ^ uint64(v)) * 1099511628211 }

// A piece is a list for carve to cut: *dst gets n elements, the first
// len of them in use.
type piece[T any] struct {
	dst    *[]T
	len, n int
}

// empty is a piece of capacity n to append to.
func empty[T any](dst *[]T, n int) piece[T] { return piece[T]{dst, 0, n} }

// filled is a piece of n zero elements.
func filled[T any](dst *[]T, n int) piece[T] { return piece[T]{dst, n, n} }

// carve cuts every piece off one allocation sized to their sum.  An
// append past a piece's capacity moves that list alone.
func carve[T any](ps ...piece[T]) {
	total := 0
	for _, p := range ps {
		total += p.n
	}
	buf := make([]T, total)
	for _, p := range ps {
		*p.dst, buf = buf[:p.len:p.n], buf[p.n:]
	}
}

// newWorkloadCosts builds the adapter, surfacing any trust-table gaps as
// errors up front rather than mid-simulation.  Only resource domains that
// own a machine are priced, so a gap for an unused RD is not an error.
func newWorkloadCosts(w *workload.Workload) (*workloadCosts, error) {
	return buildCosts(w, ^uint64(0))
}

// buildCosts is newWorkloadCosts keeping only the hash bits in keep;
// tests narrow it to force collisions.
func buildCosts(w *workload.Workload, keep uint64) (*workloadCosts, error) {
	if w == nil {
		return nil, fmt.Errorf("sim: nil workload")
	}
	nm := w.Spec.Machines
	if len(w.MachineRD) != nm {
		return nil, fmt.Errorf("sim: workload maps %d machines to resource domains, spec has %d", len(w.MachineRD), nm)
	}
	if nm == 0 {
		// With no slot to price, an invalid client RTL would never fail.
		return nil, fmt.Errorf("sim: workload has no machines")
	}
	// Few requests mostly carry distinct contexts, askers and profiles,
	// many repeat a bounded set: the lists are sized for the former,
	// capped near the paper's generator's bounds (205 ordered ToAs, 4
	// CDs, 6 client RTLs).  A list that outgrows its piece moves out by
	// append.
	n := len(w.Requests)
	nctx, nask, nprof, fewSlots := min(n, 256), min(n, 1024), min(n, 2048), min(nm, 16)
	c := &workloadCosts{w: w}
	slotOf, askers, ctxs := interner{keep: keep}, interner{keep: keep}, interner{keep: keep}
	slotCells, slotHash := slotOf.pieces(fewSlots)
	askCells, askHash := askers.pieces(nask)
	ctxCells, ctxHash := ctxs.pieces(nctx)
	var askReq, askProf []int32 // asker -> its first request; (asker, client RTL) -> profile + 1
	carve(filled(&c.rdOf, nm), filled(&c.rowOf, n), slotCells, askCells, ctxCells,
		empty(&c.slotAt, fewSlots), empty(&c.slotLen, fewSlots),
		empty(&askReq, nask), empty(&askProf, rtlSpan*nask), empty(&c.askCtx, nask), empty(&c.ctxReq, nctx),
		empty(&c.rowReq, nprof), empty(&c.rowSize, nprof), empty(&c.askOf, nprof), empty(&c.ctxOf, nprof))
	carve(slotHash, askHash, ctxHash)
	carve(empty(&c.slotRD, fewSlots), empty(&c.askCD, nask))

	for m, rd := range w.MachineRD {
		s, added := slotOf.find(mix(fnvSeed, int(rd)), func(k int32) bool { return c.slotRD[k] == rd })
		if added {
			c.slotRD = append(c.slotRD, rd)
			c.slotAt = append(c.slotAt, int32(m))
			c.slotLen = append(c.slotLen, 0)
		}
		c.rdOf[m] = s
		c.slotLen[s]++
	}
	slots := len(c.slotRD)
	c.slotRTL = make([]grid.TrustLevel, slots)
	for s, rd := range c.slotRD {
		c.slotRTL[s] = w.ResourceRTL[rd]
	}
	carve(filled(&c.tcAt, slots*tcSpan), empty(&c.otl, nask*slots))
	for k := range c.tcAt {
		c.tcAt[k] = -1
	}
	table := w.Table.Replica()

	// An asker is interned by a hash of its activities and CD, a new
	// asker's context by the activities' hash; a match is confirmed
	// against the key's first request.
	c.tc = make([]int, 0, nprof*slots)
	for i := range w.Requests {
		r := &w.Requests[i]
		h := fnvSeed
		for _, a := range r.ToA.Activities {
			h = mix(h, int(a))
		}
		a, added := askers.find(mix(h, int(r.CD)), func(k int32) bool {
			return c.askCD[k] == r.CD && slices.Equal(w.Requests[askReq[k]].ToA.Activities, r.ToA.Activities)
		})
		failAt, fail := slots, error(nil)
		if added {
			ctx, added := ctxs.find(h, func(k int32) bool {
				return slices.Equal(w.Requests[c.ctxReq[k]].ToA.Activities, r.ToA.Activities)
			})
			if added {
				c.ctxReq = append(c.ctxReq, int32(i))
			}
			askReq = append(askReq, int32(i))
			c.askCD = append(c.askCD, r.CD)
			c.askCtx = append(c.askCtx, ctx)
			askProf = append(askProf, make([]int32, rtlSpan)...)
			failAt, fail = c.appendOTL(table, r)
		}
		// A profile of a valid RTL is found in its asker's dense row; an
		// invalid RTL fails to price on the first slot, so none is kept.
		j, at := int32(-1), (*int32)(nil)
		if r.ClientRTL.Valid() {
			at = &askProf[int(a)*rtlSpan+int(r.ClientRTL-grid.LevelA)]
			j = *at - 1
		}
		if j < 0 {
			j = int32(len(c.rowReq))
			// Cell by cell this is w.TrustCostRD(r, rd): the OTL, then the
			// TC, slot by slot, failing on the first bad cell.
			otl := c.otl[int(a)*slots:][:slots]
			for s := range slots {
				if s == failAt {
					return nil, fmt.Errorf("sim: trust cost for request %d on machine %d: %w", i, c.slotAt[s], fail)
				}
				v, err := c.trustCost(s, r.ClientRTL, grid.TrustLevel(otl[s]))
				if err != nil {
					return nil, fmt.Errorf("sim: trust cost for request %d on machine %d: %w", i, c.slotAt[s], err)
				}
				c.tc = append(c.tc, v)
			}
			if at != nil {
				*at = j + 1
			}
			c.rowReq = append(c.rowReq, int32(i))
			c.rowSize = append(c.rowSize, 0)
			c.askOf = append(c.askOf, a)
			c.ctxOf = append(c.ctxOf, c.askCtx[a])
		}
		c.rowOf[i] = j
		c.rowSize[j]++
	}
	return c, nil
}

// appendOTL appends the OTL row of request r's asker, read from table,
// and returns the first slot the table does not price with the table's
// own error, or len(slotRD).
func (c *workloadCosts) appendOTL(table *grid.TableReplica, r *workload.Request) (int, error) {
	n := len(c.otl)
	c.otl = slices.Grow(c.otl, len(c.slotRD))[:n+len(c.slotRD)]
	for s, rd := range c.slotRD {
		otl, err := table.OTL(r.CD, rd, r.ToA)
		if err != nil {
			return s, err
		}
		c.otl[n+s] = int8(otl)
	}
	return len(c.slotRD), nil
}

// trustCost is grid.TrustCostWith under the workload's ETS rule for a
// client RTL and an OTL on slot s, priced once per run: an invalid level
// is priced afresh, and fails there with the call's own error.
func (c *workloadCosts) trustCost(s int, rtl, otl grid.TrustLevel) (int, error) {
	if !rtl.Valid() || !otl.Offerable() {
		return grid.TrustCostWith(c.w.Spec.ETSRule, rtl, c.slotRTL[s], otl)
	}
	k := s*tcSpan + int(rtl-grid.LevelA)*int(grid.MaxOfferable) + int(otl-grid.MinOfferable)
	if v := c.tcAt[k]; v >= 0 {
		return int(v), nil
	}
	v, err := grid.TrustCostWith(c.w.Spec.ETSRule, rtl, c.slotRTL[s], otl)
	if err != nil {
		return 0, err
	}
	c.tcAt[k] = int8(v)
	return v, nil
}

// NumRequests returns the instance's request count.
func (c *workloadCosts) NumRequests() int { return len(c.w.Requests) }

// MachineIndex returns the machine → RD slot map.
func (c *workloadCosts) MachineIndex() []int32 { return c.rdOf }

// CostRows returns request r's EEC row and its trust costs per RD slot.
func (c *workloadCosts) CostRows(r int) ([]float64, []int, error) {
	return c.eecRow(r), c.tcRow(r), nil
}

// eecRow returns request r's execution-cost row without copying (see
// Matrix.RowView); the fused scans walk it directly.
func (c *workloadCosts) eecRow(r int) []float64 {
	return c.w.EEC.RowView(c.w.Requests[r].TaskIndex)
}

// tcRow returns request r's trust costs per resource-domain slot (shared
// across requests with the same profile; read-only).  Machine m's cost is
// tcRow(r)[rdOf[m]].
func (c *workloadCosts) tcRow(r int) []int {
	j, slots := int(c.rowOf[r]), len(c.slotRD)
	return c.tc[j*slots : (j+1)*slots]
}

// pairGap is |a−b| counted once for every (request, machine) pair it
// stands for: n requests share the profile, slotLen[s] machines the slot.
// A trust-table error is the mean of these small integers over all pairs,
// so its sum is exact in any order.
func (c *workloadCosts) pairGap(a, b int, n int32, s int) int64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	return int64(d) * int64(n) * int64(c.slotLen[s])
}

// meanGap divides a pairGap sum by the number of (request, machine) pairs.
func (c *workloadCosts) meanGap(sum int64) float64 {
	return float64(sum) / float64(len(c.rowOf)*len(c.rdOf))
}
