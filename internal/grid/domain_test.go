package grid

import (
	"fmt"
	"strings"
	"testing"
)

func TestToAConstruction(t *testing.T) {
	if _, err := NewToA(); err == nil {
		t.Error("NewToA accepted an empty activity set")
	}
	if _, err := NewToA(Activity(-2)); err == nil {
		t.Error("NewToA accepted an invalid activity")
	}
	toa, err := NewToA(ActCompute)
	if err != nil {
		t.Fatal(err)
	}
	if !toa.Atomic() {
		t.Error("single-activity ToA should be atomic")
	}
	composed, err := NewToA(ActCompute, ActStorage)
	if err != nil {
		t.Fatal(err)
	}
	if composed.Atomic() {
		t.Error("two-activity ToA should not be atomic")
	}
}

func TestToACopiesInput(t *testing.T) {
	acts := []Activity{ActCompute, ActStorage}
	toa, err := NewToA(acts...)
	if err != nil {
		t.Fatal(err)
	}
	acts[0] = ActPrint
	if toa.Activities[0] != ActCompute {
		t.Error("ToA aliases the caller's slice")
	}
}

func TestToAString(t *testing.T) {
	s := MustToA(ActCompute, ActStorage).String()
	if !strings.Contains(s, "compute") || !strings.Contains(s, "storage") {
		t.Errorf("ToA string %q missing activity names", s)
	}
}

// TestToAAppendIsString pins the rendering a trust model's context is
// named by: Append writes what the names of the activities joined by
// "+" in braces read, built-in, wide or negative, after any prefix.
func TestToAAppendIsString(t *testing.T) {
	for _, toa := range []ToA{{}, MustToA(ActNetwork), MustToA(ActCompute, 71, ActStorage), {Activities: []Activity{-3, 0}}} {
		parts := make([]string, len(toa.Activities))
		for i, a := range toa.Activities {
			parts[i] = a.String()
		}
		want := "{" + strings.Join(parts, "+") + "}"
		if got := toa.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got := string(toa.Append([]byte("ctx="))); got != "ctx="+want {
			t.Errorf("Append = %q, want %q", got, "ctx="+want)
		}
	}
}

func TestActivityString(t *testing.T) {
	if ActPrint.String() != "print" {
		t.Errorf("ActPrint = %q", ActPrint.String())
	}
	if got := Activity(42).String(); got != "activity(42)" {
		t.Errorf("unknown activity = %q", got)
	}
}

func TestMustToAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustToA did not panic")
		}
	}()
	MustToA()
}

func makeGD(id DomainID, machines, clients int) *GridDomain {
	gd := &GridDomain{ID: id, Name: "gd", Owner: "org"}
	rd := &ResourceDomain{
		ID:        id,
		Owner:     "org",
		Supported: map[Activity]TrustLevel{ActCompute: LevelC},
		RTL:       LevelB,
	}
	for i := 0; i < machines; i++ {
		rd.Machines = append(rd.Machines, &Machine{
			ID: MachineID(int(id)*100 + i), RD: id,
		})
	}
	cd := &ClientDomain{
		ID:     id,
		Owner:  "org",
		Sought: map[Activity]TrustLevel{ActCompute: LevelC},
		RTL:    LevelB,
	}
	for i := 0; i < clients; i++ {
		cd.Clients = append(cd.Clients, &Client{
			ID: ClientID(int(id)*100 + i), CD: id,
		})
	}
	gd.RD, gd.CD = rd, cd
	return gd
}

func TestTopologyConstruction(t *testing.T) {
	top, err := NewTopology(makeGD(0, 2, 1), makeGD(1, 3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(top.Machines()); got != 5 {
		t.Errorf("machines = %d, want 5", got)
	}
	if got := len(top.Clients()); got != 3 {
		t.Errorf("clients = %d, want 3", got)
	}
	if got := len(top.ResourceDomains()); got != 2 {
		t.Errorf("RDs = %d, want 2", got)
	}
	if got := len(top.ClientDomains()); got != 2 {
		t.Errorf("CDs = %d, want 2", got)
	}
}

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(makeGD(0, 1, 1), makeGD(0, 1, 1)); err == nil {
		t.Error("accepted duplicate GD IDs")
	}
	if _, err := NewTopology(); err == nil {
		t.Error("accepted a topology with no machines")
	}
	gdNoMachines := makeGD(0, 0, 1)
	if _, err := NewTopology(gdNoMachines); err == nil {
		t.Error("accepted a machineless topology")
	}
	// Machine claiming the wrong RD.
	bad := makeGD(0, 1, 0)
	bad.RD.Machines[0].RD = 99
	if _, err := NewTopology(bad); err == nil {
		t.Error("accepted a machine with mismatched RD")
	}
	// Client claiming the wrong CD.
	bad2 := makeGD(0, 1, 1)
	bad2.CD.Clients[0].CD = 99
	if _, err := NewTopology(bad2); err == nil {
		t.Error("accepted a client with mismatched CD")
	}
	// Duplicate machine IDs across GDs.
	a, b := makeGD(0, 1, 0), makeGD(1, 1, 0)
	b.RD.Machines[0].ID = a.RD.Machines[0].ID
	if _, err := NewTopology(a, b); err == nil {
		t.Error("accepted duplicate machine IDs")
	}
	if _, err := NewTopology(nil); err == nil {
		t.Error("accepted a nil GridDomain")
	}
}

func TestTopologyLookups(t *testing.T) {
	top, err := NewTopology(makeGD(0, 1, 1), makeGD(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := top.Machines()[1]
	rd, err := top.MachineRD(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rd.ID != m.RD {
		t.Errorf("MachineRD returned RD %d, want %d", rd.ID, m.RD)
	}
	c := top.Clients()[0]
	cd, err := top.ClientCD(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cd.ID != c.CD {
		t.Errorf("ClientCD returned CD %d, want %d", cd.ID, c.CD)
	}
	if _, err := top.MachineRD(MachineID(999)); err == nil {
		t.Error("MachineRD found an unknown machine")
	}
	if _, err := top.ClientCD(ClientID(999)); err == nil {
		t.Error("ClientCD found an unknown client")
	}
}

// TestTopologyIndexes checks the lookups NewTopology resolves up front
// against the topology they index: every machine and client, ids that do
// not exist, and domain ids that two domains share (the first one wins, as
// the scan it replaced found it).
func TestTopologyIndexes(t *testing.T) {
	a, b, c := makeGD(0, 2, 2), makeGD(1, 0, 1), makeGD(2, 3, 1)
	// GD 3 reuses domain id 0 for its RD and CD.
	d := makeGD(3, 1, 1)
	d.RD.ID, d.RD.Machines[0].RD = 0, 0
	d.CD.ID, d.CD.Clients[0].CD = 0, 0
	top, err := NewTopology(a, b, c, d)
	if err != nil {
		t.Fatal(err)
	}
	rds, slots := top.ResourceDomains(), top.MachineSlots()
	if len(slots) != len(top.Machines()) {
		t.Fatalf("%d slots for %d machines", len(slots), len(top.Machines()))
	}
	for m, machine := range top.Machines() {
		rd, err := top.MachineRD(machine.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rd.ID != machine.RD || rds[slots[m]] != rd {
			t.Errorf("machine %d (RD %d): MachineRD %d, slot %d", machine.ID, machine.RD, rd.ID, slots[m])
		}
	}
	for _, client := range top.Clients() {
		cd, err := top.ClientCD(client.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cd.ID != client.CD {
			t.Errorf("client %d (CD %d): ClientCD %d", client.ID, client.CD, cd.ID)
		}
	}
	if rd, _ := top.MachineRD(d.RD.Machines[0].ID); rd != a.RD {
		t.Error("a shared RD id did not resolve to the first RD that carries it")
	}
	if cd, _ := top.ClientCD(d.CD.Clients[0].ID); cd != a.CD {
		t.Error("a shared CD id did not resolve to the first CD that carries it")
	}
	if got := slots[len(slots)-1]; got != 0 {
		t.Errorf("machine under the shared RD id has slot %d, want 0", got)
	}

	for _, id := range []MachineID{-1, 999} {
		if _, err := top.MachineRD(id); err == nil || err.Error() != fmt.Sprintf("grid: unknown machine %d", id) {
			t.Errorf("MachineRD(%d) error = %v", id, err)
		}
	}
	for _, id := range []ClientID{-1, 999} {
		if _, err := top.ClientCD(id); err == nil || err.Error() != fmt.Sprintf("grid: unknown client %d", id) {
			t.Errorf("ClientCD(%d) error = %v", id, err)
		}
	}

	// A machine naming an RD that does not exist never gets an index
	// entry: the topology is refused, so every slot is a real RD.
	stray := makeGD(4, 1, 0)
	stray.RD.Machines[0].RD = 77
	if _, err := NewTopology(a, stray); err == nil {
		t.Error("accepted a machine naming an unknown RD")
	}
}

func TestResourceDomainSupports(t *testing.T) {
	rd := &ResourceDomain{Supported: map[Activity]TrustLevel{
		ActCompute: LevelC, ActStorage: LevelB,
	}}
	if !rd.Supports(MustToA(ActCompute)) {
		t.Error("RD should support compute")
	}
	if !rd.Supports(MustToA(ActCompute, ActStorage)) {
		t.Error("RD should support compute+storage")
	}
	if rd.Supports(MustToA(ActCompute, ActPrint)) {
		t.Error("RD should not support print")
	}
}
