package core

import (
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/sched"
)

func batchTasks(n int, eec ...float64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		cp := make([]float64, len(eec))
		copy(cp, eec)
		tasks[i] = Task{
			Client: 0,
			ToA:    grid.MustToA(grid.ActCompute),
			RTL:    grid.LevelA,
			EEC:    cp,
		}
	}
	return tasks
}

func TestSubmitBatchMapsEveryTask(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	tasks := batchTasks(6, 10, 12)
	ps, err := trms.SubmitBatch(tasks, sched.MinMin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 6 {
		t.Fatalf("placements = %d", len(ps))
	}
	usage := map[grid.MachineID]int{}
	for i, p := range ps {
		if p == nil {
			t.Fatalf("placement %d missing", i)
		}
		usage[p.Machine.ID]++
		if p.Finish <= p.Start {
			t.Fatalf("placement %d timing %+v", i, p)
		}
	}
	// Min-min over equal tasks on two machines must use both.
	if len(usage) != 2 {
		t.Fatalf("batch crowded one machine: %v", usage)
	}
	if trms.Placed() != 6 {
		t.Fatalf("placed = %d", trms.Placed())
	}
}

func TestSubmitBatchSequencesPerMachine(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	ps, err := trms.SubmitBatch(batchTasks(4, 10, 10), sched.Sufferage{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Per machine, placements must not overlap and must start at or
	// after the batch time.
	last := map[grid.MachineID]float64{}
	for _, p := range ps {
		if p.Start < 5 {
			t.Fatalf("placement started before batch time: %+v", p)
		}
		if p.Start < last[p.Machine.ID] {
			t.Fatalf("overlapping placements on machine %d", p.Machine.ID)
		}
		last[p.Machine.ID] = p.Finish
	}
}

func TestSubmitBatchTrustAware(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	// RD 1 offers E for compute; RD 0 stays at the default C.
	if err := trms.Table().Set(0, 1, grid.ActCompute, grid.LevelE); err != nil {
		t.Fatal(err)
	}
	tasks := batchTasks(4, 100, 100)
	for i := range tasks {
		tasks[i].RTL = grid.LevelE
	}
	ps, err := trms.SubmitBatch(tasks, sched.MinMin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Machine 1 (RD 1) carries TC 0 vs machine 0's TC 2 (+30%): the
	// batch should lean on machine 1.
	m1 := 0
	for _, p := range ps {
		if p.Machine.ID == 1 {
			m1++
			if p.TC != 0 {
				t.Fatalf("machine 1 placement TC = %d", p.TC)
			}
		}
	}
	if m1 < 2 {
		t.Fatalf("trusted machine got only %d of 4 batch tasks", m1)
	}
}

func TestSubmitBatchValidation(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if _, err := trms.SubmitBatch(nil, sched.MinMin{}, 0); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := trms.SubmitBatch(batchTasks(1, 10, 12), nil, 0); err == nil {
		t.Error("nil heuristic accepted")
	}
	bad := batchTasks(2, 10, 12)
	bad[1].EEC = []float64{1}
	if _, err := trms.SubmitBatch(bad, sched.MinMin{}, 0); err == nil {
		t.Error("short EEC accepted")
	}
	bad = batchTasks(1, 10, 12)
	bad[0].ToA = grid.MustToA(grid.ActNetwork) // unsupported
	if _, err := trms.SubmitBatch(bad, sched.MinMin{}, 0); err == nil {
		t.Error("unsupported ToA accepted")
	}
	bad = batchTasks(1, 10, 12)
	bad[0].Client = 99
	if _, err := trms.SubmitBatch(bad, sched.MinMin{}, 0); err == nil {
		t.Error("unknown client accepted")
	}
	bad = batchTasks(1, 10, 12)
	bad[0].RTL = grid.LevelNone
	if _, err := trms.SubmitBatch(bad, sched.MinMin{}, 0); err == nil {
		t.Error("invalid RTL accepted")
	}
}

func TestSubmitBatchAfterClose(t *testing.T) {
	trms, err := New(Config{Topology: twoDomainTopology(t)})
	if err != nil {
		t.Fatal(err)
	}
	trms.Close()
	if _, err := trms.SubmitBatch(batchTasks(1, 10, 12), sched.MinMin{}, 0); err == nil {
		t.Fatal("closed TRMS accepted a batch")
	}
}

func TestSubmitBatchThenImmediateShareAvailability(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	if _, err := trms.SubmitBatch(batchTasks(2, 100, 100), sched.MinMin{}, 0); err != nil {
		t.Fatal(err)
	}
	// Both machines are busy until ~100; an immediate submit at t=0
	// must queue behind the batch.
	p, err := trms.Submit(batchTasks(1, 10, 10)[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Start < 100 {
		t.Fatalf("immediate submit ignored batch backlog: start %g", p.Start)
	}
}

// capRD is a fuser standing in for a fleet's claims overlay: peers report
// that one resource domain deserves no more than a given level.
type capRD struct {
	rd  grid.DomainID
	cap grid.TrustLevel
}

func (c capRD) FuseOTL(_, rd grid.DomainID, _ grid.ToA, local grid.TrustLevel) grid.TrustLevel {
	if rd == c.rd && c.cap < local {
		return c.cap
	}
	return local
}

// TestSubmitBatchAppliesFuser: a batch is priced through the same fuser as
// an immediate submit, so a fleet shard's batch placements honour peer
// claims.
func TestSubmitBatchAppliesFuser(t *testing.T) {
	trms := newTRMS(t, Config{Topology: twoDomainTopology(t)})
	trms.SetOTLFuser(capRD{rd: 1, cap: grid.LevelA})
	tasks := batchTasks(4, 100, 100)
	for i := range tasks {
		tasks[i].RTL = grid.LevelC
	}
	ps, err := trms.SubmitBatch(tasks, sched.MinMin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The table offers C on both RDs; the fuser caps RD 1 at A, so RD 1
	// carries TC 2 and anything placed there reports the fused level.
	onRD1 := 0
	for i, p := range ps {
		switch p.RD {
		case 0:
			if p.OTL != grid.LevelC || p.TC != 0 {
				t.Errorf("task %d on RD 0: OTL %v TC %d, want C/0", i, p.OTL, p.TC)
			}
		case 1:
			onRD1++
			if p.OTL != grid.LevelA || p.TC != 2 {
				t.Errorf("task %d on RD 1: OTL %v TC %d, want the fused A/2", i, p.OTL, p.TC)
			}
		}
	}
	if onRD1 == 0 {
		t.Fatal("no batch task reached the capped RD; the test proves nothing")
	}
}

// TestSubmitBatchSetsMachineIdx: the journal replays a placement by its
// MachineIdx, so a batch placement must carry it like any other.
func TestSubmitBatchSetsMachineIdx(t *testing.T) {
	top := twoDomainTopology(t)
	trms := newTRMS(t, Config{Topology: top})
	ps, err := trms.SubmitBatch(batchTasks(4, 10, 12), sched.MinMin{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, p := range ps {
		if top.Machines()[p.MachineIdx] != p.Machine {
			t.Errorf("task %d: MachineIdx %d is not machine %d", i, p.MachineIdx, p.Machine.ID)
		}
		seen[p.MachineIdx] = true
	}
	if len(seen) != 2 {
		t.Fatalf("batch used machine indexes %v, want both", seen)
	}
}
