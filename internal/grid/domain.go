package grid

import "fmt"

// DomainID identifies a Grid domain, resource domain or client domain.
type DomainID int

// GridDomain is an autonomous administrative entity "consisting of a set of
// resources and clients managed by a single administrative authority"
// (Section 3.1).  Each GD carries two virtual domains: a resource domain
// and a client domain, either of which may be empty.
type GridDomain struct {
	ID    DomainID
	Name  string
	Owner string

	// RD and CD are the virtual domains mapped onto this GD.  Nil means
	// the GD hosts no resources (resp. clients).
	RD *ResourceDomain
	CD *ClientDomain
}

// ResourceDomain signifies the resources within a GD.  Its TRMS-relevant
// attributes are "(a) ownership, (b) set of type of activity (ToA) it
// supports, and (c) trust level (TL) for each ToA" (Section 3.1).
type ResourceDomain struct {
	ID    DomainID
	Owner string

	// Supported maps each offered activity to the RD's own baseline trust
	// level for that activity.  An absent activity is not offered at all.
	Supported map[Activity]TrustLevel

	// RTL is the trust level this RD requires of clients before it will
	// host their tasks without supplementary security (the resource-side
	// required trust level of Section 3.1).
	RTL TrustLevel

	// Machines enumerates the machines belonging to the RD.  Resources
	// inherit the RD's trust parameters: "the resources and clients
	// within a GD inherit the parameters associated with the RD and CD"
	// (Section 3.1).
	Machines []*Machine
}

// Supports reports whether the RD offers every activity of the ToA.
func (rd *ResourceDomain) Supports(t ToA) bool {
	for _, a := range t.Activities {
		if _, ok := rd.Supported[a]; !ok {
			return false
		}
	}
	return true
}

// ClientDomain signifies the clients within a GD.  "The CD trust attributes
// include: (a) ownership, (b) ToAs sought, and (c) TLs associated with
// ToAs" (Section 3.1).
type ClientDomain struct {
	ID    DomainID
	Owner string

	// Sought maps each activity the domain's clients request to the trust
	// level the clients associate with it.
	Sought map[Activity]TrustLevel

	// RTL is the trust level this CD requires of resources (the
	// client-side required trust level of Section 3.1).
	RTL TrustLevel

	// Clients enumerates the clients belonging to the CD.
	Clients []*Client
}

// MachineID identifies a machine within the Grid.
type MachineID int

// Machine is a single resource capable of executing one task at a time,
// non-preemptively (the TRM algorithms' assumption (b), Section 4.1).
type Machine struct {
	ID   MachineID
	Name string
	RD   DomainID // owning resource domain
}

// ClientID identifies a client within the Grid.
type ClientID int

// Client originates requests.  Different requests of the same CD may be
// mapped onto different RDs (Section 4.1).
type Client struct {
	ID   ClientID
	Name string
	CD   DomainID // owning client domain
}

// Topology is the static shape of a simulated Grid: the GDs with their RDs,
// CDs, machines and clients.  It is deliberately a plain data structure;
// behaviour lives in the trust table, the trust engine and the scheduler.
type Topology struct {
	Domains  []*GridDomain
	machines []*Machine
	clients  []*Client
	rds      []*ResourceDomain
	cds      []*ClientDomain

	// Lookup indexes, resolved once by NewTopology: the shape is static
	// and the daemon asks on every decision.
	machineSlot []int             // machine index -> index of its RD in rds
	machineIdx  map[MachineID]int // machine id -> machine index
	clientCD    map[ClientID]*ClientDomain
}

// NewTopology assembles a topology from grid domains, validating that IDs
// are unique and machines/clients reference their owning domains.
func NewTopology(domains ...*GridDomain) (*Topology, error) {
	t := &Topology{
		Domains:    domains,
		machineIdx: map[MachineID]int{},
		clientCD:   map[ClientID]*ClientDomain{},
	}
	seenGD := map[DomainID]bool{}
	// A domain id resolves to the first RD (resp. CD) that carries it.
	rdSlot := map[DomainID]int{}
	cdByID := map[DomainID]*ClientDomain{}
	for _, gd := range domains {
		if gd == nil {
			return nil, fmt.Errorf("grid: nil GridDomain")
		}
		if seenGD[gd.ID] {
			return nil, fmt.Errorf("grid: duplicate GridDomain ID %d", gd.ID)
		}
		seenGD[gd.ID] = true
		if gd.RD != nil {
			if _, ok := rdSlot[gd.RD.ID]; !ok {
				rdSlot[gd.RD.ID] = len(t.rds)
			}
			t.rds = append(t.rds, gd.RD)
			for _, m := range gd.RD.Machines {
				if m == nil {
					return nil, fmt.Errorf("grid: nil Machine in RD %d", gd.RD.ID)
				}
				if _, dup := t.machineIdx[m.ID]; dup {
					return nil, fmt.Errorf("grid: duplicate Machine ID %d", m.ID)
				}
				if m.RD != gd.RD.ID {
					return nil, fmt.Errorf("grid: machine %d claims RD %d but belongs to RD %d",
						m.ID, m.RD, gd.RD.ID)
				}
				t.machineIdx[m.ID] = len(t.machines)
				t.machines = append(t.machines, m)
				t.machineSlot = append(t.machineSlot, rdSlot[m.RD])
			}
		}
		if gd.CD != nil {
			if _, ok := cdByID[gd.CD.ID]; !ok {
				cdByID[gd.CD.ID] = gd.CD
			}
			t.cds = append(t.cds, gd.CD)
			for _, c := range gd.CD.Clients {
				if c == nil {
					return nil, fmt.Errorf("grid: nil Client in CD %d", gd.CD.ID)
				}
				if _, dup := t.clientCD[c.ID]; dup {
					return nil, fmt.Errorf("grid: duplicate Client ID %d", c.ID)
				}
				if c.CD != gd.CD.ID {
					return nil, fmt.Errorf("grid: client %d claims CD %d but belongs to CD %d",
						c.ID, c.CD, gd.CD.ID)
				}
				t.clientCD[c.ID] = cdByID[c.CD]
				t.clients = append(t.clients, c)
			}
		}
	}
	if len(t.machines) == 0 {
		return nil, fmt.Errorf("grid: topology has no machines")
	}
	return t, nil
}

// Machines returns all machines in topology order.
func (t *Topology) Machines() []*Machine { return t.machines }

// Clients returns all clients in topology order.
func (t *Topology) Clients() []*Client { return t.clients }

// ResourceDomains returns all RDs in topology order.
func (t *Topology) ResourceDomains() []*ResourceDomain { return t.rds }

// ClientDomains returns all CDs in topology order.
func (t *Topology) ClientDomains() []*ClientDomain { return t.cds }

// MachineSlots maps each machine, in topology order, to the index of its
// owning resource domain in ResourceDomains.  Trust is kept between
// domains, so a scheduler prices one cell per RD and reads machine m's
// cost through MachineSlots()[m].  The slice is shared; do not modify it.
func (t *Topology) MachineSlots() []int { return t.machineSlot }

// MachineRD returns the resource domain owning machine id, as resolved
// when the topology was built.
func (t *Topology) MachineRD(id MachineID) (*ResourceDomain, error) {
	m, ok := t.machineIdx[id]
	if !ok {
		return nil, fmt.Errorf("grid: unknown machine %d", id)
	}
	return t.rds[t.machineSlot[m]], nil
}

// ClientCD returns the client domain owning client id, as resolved when
// the topology was built.
func (t *Topology) ClientCD(id ClientID) (*ClientDomain, error) {
	cd, ok := t.clientCD[id]
	if !ok {
		return nil, fmt.Errorf("grid: unknown client %d", id)
	}
	return cd, nil
}
