package gridgen

import (
	"slices"
	"testing"

	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
)

func TestGenerateDefaults(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		top, err := Generate(rng.New(seed), Spec{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(top.Machines()) == 0 {
			t.Fatalf("seed %d: no machines", seed)
		}
		if len(top.Clients()) == 0 {
			t.Fatalf("seed %d: no clients", seed)
		}
		n := len(top.Domains)
		if n < 1 || n > 4 {
			t.Fatalf("seed %d: %d grid domains, want [1,4]", seed, n)
		}
	}
}

func TestGenerateRespectsBounds(t *testing.T) {
	spec := Spec{
		GridDomains: 3,
		MinMachines: 2, MaxMachines: 2,
		MinClients: 4, MaxClients: 4,
	}
	top, err := Generate(rng.New(1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Domains) != 3 {
		t.Fatalf("domains = %d", len(top.Domains))
	}
	for _, rd := range top.ResourceDomains() {
		if len(rd.Machines) != 2 {
			t.Fatalf("RD %d has %d machines, want 2", rd.ID, len(rd.Machines))
		}
		if len(rd.Supported) == 0 {
			t.Fatalf("RD %d supports nothing", rd.ID)
		}
		for _, tl := range rd.Supported {
			if !tl.Offerable() {
				t.Fatalf("RD %d offers non-offerable %v", rd.ID, tl)
			}
		}
		if !rd.RTL.Valid() {
			t.Fatalf("RD %d has invalid RTL", rd.ID)
		}
	}
	for _, cd := range top.ClientDomains() {
		if len(cd.Clients) != 4 {
			t.Fatalf("CD %d has %d clients, want 4", cd.ID, len(cd.Clients))
		}
	}
}

func TestGenerateAlwaysSchedulable(t *testing.T) {
	// Even with low RD/CD probabilities the topology must contain at
	// least one machine and one client.
	for seed := uint64(0); seed < 50; seed++ {
		top, err := Generate(rng.New(seed), Spec{
			GridDomains:   4,
			RDProbability: 0.2,
			CDProbability: 0.2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(top.Machines()) == 0 || len(top.Clients()) == 0 {
			t.Fatalf("seed %d: unschedulable topology", seed)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(rng.New(9), Spec{GridDomains: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rng.New(9), Spec{GridDomains: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Machines()) != len(b.Machines()) || len(a.Clients()) != len(b.Clients()) {
		t.Fatal("same seed produced different topologies")
	}
	for i := range a.Machines() {
		if a.Machines()[i].ID != b.Machines()[i].ID || a.Machines()[i].RD != b.Machines()[i].RD {
			t.Fatal("machine layout differs between identical seeds")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	src := rng.New(1)
	if _, err := Generate(nil, Spec{}); err == nil {
		t.Error("accepted nil source")
	}
	bad := []Spec{
		{GridDomains: -1},
		{MinMachines: 3, MaxMachines: 2},
		{MinClients: 5, MaxClients: 1},
		{Activities: -1},
		{RDProbability: 1.5},
		{GridDomains: grid.TableDomains + 1},
		{Activities: grid.TableActivities + 1},
	}
	for i, s := range bad {
		if _, err := Generate(src, s); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
	// The bounds' own edges are the trust table's last ids.
	if _, err := Generate(src, Spec{GridDomains: grid.TableDomains, Activities: grid.TableActivities}); err != nil {
		t.Errorf("spec at the table's bounds refused: %v", err)
	}
}

// TestGeneratedTopologyWorksWithCore is the integration check: a random
// topology must be consumable by the TRMS stack (indirectly via
// grid.NewTopology, already called) and by OTL computation.
func TestGeneratedTopologyOTL(t *testing.T) {
	src := rng.New(11)
	top, err := Generate(src, Spec{GridDomains: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Seed every (CD, RD, supported activity) triple with an offerable
	// level, in (cd, rd, activity) order.
	table := grid.NewTrustTable()
	for _, cd := range top.ClientDomains() {
		for _, rd := range top.ResourceDomains() {
			acts := make([]grid.Activity, 0, len(rd.Supported))
			for act := range rd.Supported {
				acts = append(acts, act)
			}
			slices.Sort(acts)
			for _, act := range acts {
				tl := grid.TrustLevel(src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
				if err := table.Set(cd.ID, rd.ID, act, tl); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, cd := range top.ClientDomains() {
		for _, rd := range top.ResourceDomains() {
			for act := range rd.Supported {
				otl, err := table.OTL(cd.ID, rd.ID, grid.MustToA(act))
				if err != nil {
					t.Fatalf("OTL(%d,%d,%v): %v", cd.ID, rd.ID, act, err)
				}
				if !otl.Offerable() {
					t.Fatalf("OTL %v not offerable", otl)
				}
			}
		}
	}
}
