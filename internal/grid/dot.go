package grid

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteDOT renders a topology as a Graphviz document in the spirit of the
// paper's Figure 1: one cluster per Grid domain containing its resource
// domain (with machines) and client domain (with clients).
//
// Output is deterministic: domains, machines and clients are emitted in
// ID order.
func WriteDOT(w io.Writer, top *Topology) error {
	if top == nil {
		return fmt.Errorf("grid: nil topology")
	}
	// dotQuote wraps a label in double quotes, escaping embedded quotes;
	// backslash sequences like \n are left intact because DOT itself
	// interprets them (fmt's %q would double-escape them).
	dotQuote := func(label string) string {
		return "\"" + strings.ReplaceAll(label, "\"", "\\\"") + "\""
	}
	var b strings.Builder
	b.WriteString("digraph gridtrust {\n")
	b.WriteString("  rankdir=LR;\n")
	b.WriteString("  node [shape=box, fontsize=10];\n")

	domains := make([]*GridDomain, len(top.Domains))
	copy(domains, top.Domains)
	sort.Slice(domains, func(i, j int) bool { return domains[i].ID < domains[j].ID })

	for _, gd := range domains {
		fmt.Fprintf(&b, "  subgraph cluster_gd%d {\n", gd.ID)
		fmt.Fprintf(&b, "    label=%s;\n", dotQuote(fmt.Sprintf("GD %d (%s, owner %s)", gd.ID, gd.Name, gd.Owner)))
		if gd.RD != nil {
			fmt.Fprintf(&b, "    rd%d [label=%s, shape=folder];\n",
				gd.RD.ID, dotQuote(fmt.Sprintf("RD %d\\nRTL %s", gd.RD.ID, gd.RD.RTL)))
			machines := make([]*Machine, len(gd.RD.Machines))
			copy(machines, gd.RD.Machines)
			sort.Slice(machines, func(i, j int) bool { return machines[i].ID < machines[j].ID })
			for _, m := range machines {
				fmt.Fprintf(&b, "    m%d [label=%s, shape=component];\n",
					m.ID, dotQuote(fmt.Sprintf("machine %d", m.ID)))
				fmt.Fprintf(&b, "    rd%d -> m%d [style=dotted, arrowhead=none];\n", gd.RD.ID, m.ID)
			}
		}
		if gd.CD != nil {
			fmt.Fprintf(&b, "    cd%d [label=%s, shape=house];\n",
				gd.CD.ID, dotQuote(fmt.Sprintf("CD %d\\nRTL %s", gd.CD.ID, gd.CD.RTL)))
			clients := make([]*Client, len(gd.CD.Clients))
			copy(clients, gd.CD.Clients)
			sort.Slice(clients, func(i, j int) bool { return clients[i].ID < clients[j].ID })
			for _, c := range clients {
				fmt.Fprintf(&b, "    c%d [label=%s, shape=oval];\n",
					c.ID, dotQuote(fmt.Sprintf("client %d", c.ID)))
				fmt.Fprintf(&b, "    cd%d -> c%d [style=dotted, arrowhead=none];\n", gd.CD.ID, c.ID)
			}
		}
		b.WriteString("  }\n")
	}

	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary returns a one-paragraph human description of a topology, used by
// daemon startup logs and the workload tooling.
func Summary(top *Topology) string {
	if top == nil {
		return "<nil topology>"
	}
	var rds, cds, machines, clients int
	for _, gd := range top.Domains {
		if gd.RD != nil {
			rds++
			machines += len(gd.RD.Machines)
		}
		if gd.CD != nil {
			cds++
			clients += len(gd.CD.Clients)
		}
	}
	return fmt.Sprintf("%d grid domains (%d RDs with %d machines, %d CDs with %d clients)",
		len(top.Domains), rds, machines, cds, clients)
}
