// Package gridgen generates random Grid topologies — grid domains with
// resource/client domains, machines and clients — following the paper's
// Section 5.3 conventions (domain counts in [1,4], per-activity trust
// levels in the offerable range).  It exists so examples, tests and the
// evolving-trust simulations can build structurally valid Grids without
// hand-wiring every domain.
package gridgen

import (
	"fmt"

	"gridtrust/internal/grid"
	"gridtrust/internal/rng"
)

// Spec bounds the generated topology.
type Spec struct {
	// GridDomains is the number of GDs; 0 draws from [1,4] as in the
	// paper's simulations.
	GridDomains int
	// MachinesPerRD bounds machines per resource domain (inclusive);
	// zero values default to [1,3].
	MinMachines, MaxMachines int
	// ClientsPerCD bounds clients per client domain (inclusive); zero
	// values default to [1,3].
	MinClients, MaxClients int
	// Activities is the size of the activity vocabulary; 0 defaults to
	// the built-in five.
	Activities int
	// RDProbability and CDProbability are the chances a GD hosts a
	// resource (resp. client) domain; zeros default to 1 (every GD has
	// both).  At least one RD with a machine and one CD with a client
	// are always guaranteed.
	RDProbability, CDProbability float64
}

// withDefaults fills unset fields.
func (s Spec) withDefaults(src *rng.Source) Spec {
	if s.GridDomains == 0 {
		s.GridDomains = src.IntRange(1, 4)
	}
	if s.MinMachines == 0 {
		s.MinMachines = 1
	}
	if s.MaxMachines == 0 {
		s.MaxMachines = 3
	}
	if s.MinClients == 0 {
		s.MinClients = 1
	}
	if s.MaxClients == 0 {
		s.MaxClients = 3
	}
	if s.Activities == 0 {
		s.Activities = int(grid.NumBuiltinActivities)
	}
	if s.RDProbability == 0 {
		s.RDProbability = 1
	}
	if s.CDProbability == 0 {
		s.CDProbability = 1
	}
	return s
}

// validate rejects impossible bounds.
func (s Spec) validate() error {
	switch {
	case s.GridDomains < 0 || s.GridDomains > grid.TableDomains:
		return fmt.Errorf("gridgen: GridDomains %d outside [0,%d], the trust table's domain ids", s.GridDomains, grid.TableDomains)
	case s.MinMachines < 1 || s.MaxMachines < s.MinMachines:
		return fmt.Errorf("gridgen: bad machine bounds [%d,%d]", s.MinMachines, s.MaxMachines)
	case s.MinClients < 1 || s.MaxClients < s.MinClients:
		return fmt.Errorf("gridgen: bad client bounds [%d,%d]", s.MinClients, s.MaxClients)
	case s.Activities < 1 || s.Activities > grid.TableActivities:
		return fmt.Errorf("gridgen: Activities %d outside [1,%d], the trust table's activity ids", s.Activities, grid.TableActivities)
	case s.RDProbability < 0 || s.RDProbability > 1 || s.CDProbability < 0 || s.CDProbability > 1:
		return fmt.Errorf("gridgen: probabilities outside [0,1]")
	}
	return nil
}

// Generate draws a topology.  Identical source state yields an identical
// topology.
func Generate(src *rng.Source, spec Spec) (*grid.Topology, error) {
	if src == nil {
		return nil, fmt.Errorf("gridgen: nil random source")
	}
	spec = spec.withDefaults(src)
	if err := spec.validate(); err != nil {
		return nil, err
	}

	nextMachine := 0
	nextClient := 0
	domains := make([]*grid.GridDomain, 0, spec.GridDomains)
	haveRD, haveCD := false, false
	for g := 0; g < spec.GridDomains; g++ {
		gd := &grid.GridDomain{
			ID:    grid.DomainID(g),
			Name:  fmt.Sprintf("gd-%d", g),
			Owner: fmt.Sprintf("org-%d", g),
		}
		wantRD := src.Bool(spec.RDProbability)
		wantCD := src.Bool(spec.CDProbability)
		// The last GD back-fills whatever is still missing so the
		// topology is always schedulable.
		if g == spec.GridDomains-1 {
			wantRD = wantRD || !haveRD
			wantCD = wantCD || !haveCD
		}
		if wantRD {
			gd.RD = genRD(src, spec, grid.DomainID(g), &nextMachine)
			haveRD = true
		}
		if wantCD {
			gd.CD = genCD(src, spec, grid.DomainID(g), &nextClient)
			haveCD = true
		}
		domains = append(domains, gd)
	}
	return grid.NewTopology(domains...)
}

// genRD draws one resource domain with its machines and per-activity
// offered trust levels.
func genRD(src *rng.Source, spec Spec, id grid.DomainID, nextMachine *int) *grid.ResourceDomain {
	rd := &grid.ResourceDomain{
		ID:        id,
		Owner:     fmt.Sprintf("org-%d", id),
		Supported: make(map[grid.Activity]grid.TrustLevel),
		RTL:       grid.TrustLevel(src.IntRange(int(grid.MinRequirable), int(grid.MaxRequirable))),
	}
	// Every RD supports a random non-empty subset of the vocabulary.
	supported := 0
	for a := 0; a < spec.Activities; a++ {
		if src.Bool(0.8) {
			rd.Supported[grid.Activity(a)] = grid.TrustLevel(
				src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
			supported++
		}
	}
	if supported == 0 {
		a := grid.Activity(src.Intn(spec.Activities))
		rd.Supported[a] = grid.TrustLevel(src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
	}
	n := src.IntRange(spec.MinMachines, spec.MaxMachines)
	for i := 0; i < n; i++ {
		rd.Machines = append(rd.Machines, &grid.Machine{
			ID:   grid.MachineID(*nextMachine),
			Name: fmt.Sprintf("m-%d", *nextMachine),
			RD:   id,
		})
		*nextMachine++
	}
	return rd
}

// genCD draws one client domain with its clients and sought activities.
func genCD(src *rng.Source, spec Spec, id grid.DomainID, nextClient *int) *grid.ClientDomain {
	cd := &grid.ClientDomain{
		ID:     id,
		Owner:  fmt.Sprintf("org-%d", id),
		Sought: make(map[grid.Activity]grid.TrustLevel),
		RTL:    grid.TrustLevel(src.IntRange(int(grid.MinRequirable), int(grid.MaxRequirable))),
	}
	for a := 0; a < spec.Activities; a++ {
		if src.Bool(0.6) {
			cd.Sought[grid.Activity(a)] = grid.TrustLevel(
				src.IntRange(int(grid.MinOfferable), int(grid.MaxOfferable)))
		}
	}
	n := src.IntRange(spec.MinClients, spec.MaxClients)
	for i := 0; i < n; i++ {
		cd.Clients = append(cd.Clients, &grid.Client{
			ID:   grid.ClientID(*nextClient),
			Name: fmt.Sprintf("c-%d", *nextClient),
			CD:   id,
		})
		*nextClient++
	}
	return cd
}
