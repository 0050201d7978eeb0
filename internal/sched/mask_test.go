package sched

import (
	"math"
	"testing"

	"gridtrust/internal/rng"
)

// maskedImmediates lists every deterministic immediate heuristic under the
// masking contract.
func maskedImmediates(t *testing.T) []Immediate {
	t.Helper()
	sa, err := NewSA(0.6, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return []Immediate{MCT{}, MET{}, OLB{}, KPB{Percent: 50}, sa}
}

// maskedBatches lists every deterministic batch heuristic under the
// masking contract.
func maskedBatches() []Batch {
	return []Batch{MinMin{}, MaxMin{}, Sufferage{}, Duplex{}}
}

func TestMaskAvail(t *testing.T) {
	avail := []float64{1, 2, 3}
	up := []bool{true, false, true}
	dst := make([]float64, 3)
	got := MaskAvail(avail, up, dst)
	if got[0] != 1 || !IsMasked(got[1]) || got[2] != 3 {
		t.Fatalf("MaskAvail = %v", got)
	}
	// In-place aliasing must work too.
	MaskAvail(avail, up, avail)
	if avail[0] != 1 || !IsMasked(avail[1]) || avail[2] != 3 {
		t.Fatalf("in-place MaskAvail = %v", avail)
	}
	if IsMasked(0) || IsMasked(math.Inf(-1)) || !IsMasked(Masked()) {
		t.Fatal("IsMasked misclassifies")
	}
}

// TestImmediateNeverMapsToMaskedMachine drives every immediate heuristic
// over random instances with random partial masks: the chosen machine
// must always be up.
func TestImmediateNeverMapsToMaskedMachine(t *testing.T) {
	src := rng.New(31)
	p := MustTrustAware(DefaultTCWeight)
	for trial := 0; trial < 200; trial++ {
		nm := src.IntRange(2, 8)
		c := randomInstance(src, 6, nm)
		avail := make([]float64, nm)
		up := make([]bool, nm)
		nUp := 0
		for m := range up {
			avail[m] = src.Uniform(0, 50)
			up[m] = src.Bool(0.6)
			if up[m] {
				nUp++
			}
		}
		if nUp == 0 {
			up[src.Intn(nm)] = true
		}
		MaskAvail(avail, up, avail)
		for _, h := range maskedImmediates(t) {
			for r := 0; r < c.NumRequests(); r++ {
				a, err := h.AssignOne(c, p, r, avail)
				if err != nil {
					t.Fatalf("%s: %v", h.Name(), err)
				}
				if a.Machine < 0 || a.Machine >= nm || !up[a.Machine] {
					t.Fatalf("%s mapped request %d to down machine %d", h.Name(), r, a.Machine)
				}
			}
		}
	}
}

// TestBatchNeverMapsToMaskedMachine is the batch-mode counterpart.
func TestBatchNeverMapsToMaskedMachine(t *testing.T) {
	src := rng.New(32)
	p := MustTrustAware(DefaultTCWeight)
	reqs := []int{0, 1, 2, 3, 4, 5}
	for trial := 0; trial < 100; trial++ {
		nm := src.IntRange(2, 8)
		c := randomInstance(src, len(reqs), nm)
		avail := make([]float64, nm)
		up := make([]bool, nm)
		nUp := 0
		for m := range up {
			avail[m] = src.Uniform(0, 50)
			up[m] = src.Bool(0.6)
			if up[m] {
				nUp++
			}
		}
		if nUp == 0 {
			up[src.Intn(nm)] = true
		}
		MaskAvail(avail, up, avail)
		for _, h := range maskedBatches() {
			as, err := h.AssignBatchInto(c, p, reqs, avail, nil)
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			for _, a := range as {
				if a.Machine < 0 || a.Machine >= nm || !up[a.Machine] {
					t.Fatalf("%s mapped request %d to down machine %d", h.Name(), a.Req, a.Machine)
				}
			}
		}
	}
}

// TestAllMaskedErrors: with every machine down, heuristics must fail
// loudly, never return a sentinel machine.
func TestAllMaskedErrors(t *testing.T) {
	src := rng.New(33)
	c := randomInstance(src, 3, 4)
	p := MustTrustAware(DefaultTCWeight)
	avail := []float64{Masked(), Masked(), Masked(), Masked()}
	for _, h := range maskedImmediates(t) {
		if _, err := h.AssignOne(c, p, 0, avail); err == nil {
			t.Errorf("%s accepted an all-masked grid", h.Name())
		}
	}
	for _, h := range maskedBatches() {
		if _, err := h.AssignBatchInto(c, p, []int{0, 1}, avail, nil); err == nil {
			t.Errorf("%s accepted an all-masked grid", h.Name())
		}
	}
}

// TestMaskingEquivalentToRemoval: for MCT and Min-min, masking machine m
// must pick the same machines as deleting column m from the instance.
func TestMaskingEquivalentToRemoval(t *testing.T) {
	src := rng.New(34)
	p := MustTrustAware(DefaultTCWeight)
	for trial := 0; trial < 50; trial++ {
		const nm = 5
		tasks := 4
		c := randomInstance(src, tasks, nm)
		down := src.Intn(nm)
		avail := make([]float64, nm)
		for m := range avail {
			avail[m] = src.Uniform(0, 20)
		}
		// Build the reduced instance without the down machine.
		exec := make([][]float64, tasks)
		tc := make([][]int, tasks)
		for i := 0; i < tasks; i++ {
			for m := 0; m < nm; m++ {
				if m == down {
					continue
				}
				exec[i] = append(exec[i], c.Exec[i][m])
				tc[i] = append(tc[i], c.TC[i][m])
			}
		}
		reduced, err := NewMatrixCosts(exec, tc)
		if err != nil {
			t.Fatal(err)
		}
		redAvail := make([]float64, 0, nm-1)
		for m := 0; m < nm; m++ {
			if m != down {
				redAvail = append(redAvail, avail[m])
			}
		}
		// toFull maps reduced machine indices back to full ones.
		toFull := func(m int) int {
			if m >= down {
				return m + 1
			}
			return m
		}
		masked := make([]float64, nm)
		up := make([]bool, nm)
		for m := range up {
			up[m] = m != down
		}
		MaskAvail(avail, up, masked)

		for r := 0; r < tasks; r++ {
			a1, err := MCT{}.AssignOne(c, p, r, masked)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := MCT{}.AssignOne(reduced, p, r, redAvail)
			if err != nil {
				t.Fatal(err)
			}
			if a1.Machine != toFull(a2.Machine) {
				t.Fatalf("MCT: masked chose %d, removal chose %d", a1.Machine, toFull(a2.Machine))
			}
		}
		reqs := make([]int, tasks)
		for i := range reqs {
			reqs[i] = i
		}
		b1, err := MinMin{}.AssignBatchInto(c, p, reqs, masked, nil)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := MinMin{}.AssignBatchInto(reduced, p, reqs, redAvail, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range b1 {
			if b1[i].Req != b2[i].Req || b1[i].Machine != toFull(b2[i].Machine) {
				t.Fatalf("MinMin: masked %+v, removal %+v", b1[i], b2[i])
			}
		}
	}
}
