// Command gridctl is the command-line client for gridtrustd: it submits
// tasks, reports outcomes and queries daemon statistics over the rmswire
// protocol.
//
// Usage:
//
//	gridctl -addr 127.0.0.1:7431 submit -client 0 -activities 0,1 -rtl E -eec 100,110,95
//	gridctl -addr 127.0.0.1:7431 report -placement 3 -outcome 5.5
//	gridctl -addr 127.0.0.1:7431 stats
//	gridctl -addr 127.0.0.1:7431 metrics        # counters, gauges, latency histograms
//	gridctl -addr 127.0.0.1:7431 metrics -format json
//	gridctl -addr 127.0.0.1:7431 health         # readiness: conns, in-flight, journal, drain state
//	gridctl -addr 127.0.0.1:7431 drain          # graceful shutdown: finish in-flight, checkpoint, exit
//	gridctl -addr 127.0.0.1:7431 checkpoint     # snapshot + compact the daemon's WAL
//	gridctl wal-info -data /var/lib/gridtrustd  # offline: inspect a WAL directory
//	gridctl wal-dump -data /var/lib/gridtrustd  # offline: print every live record
//
// The wal-* subcommands read the log directory directly (read-only, safe
// while the daemon is stopped); checkpoint talks to a running daemon.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gridtrust/internal/grid"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/wal"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7431", "gridtrustd address")
	timeout := flag.Duration("timeout", rmswire.DefaultDialTimeout, "dial and per-op timeout")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	// Offline subcommands never dial.
	switch args[0] {
	case "wal-info":
		if err := cmdWALInfo(args[1:]); err != nil {
			fatalf("%v", err)
		}
		return
	case "wal-dump":
		if err := cmdWALDump(args[1:]); err != nil {
			fatalf("%v", err)
		}
		return
	case "fleet":
		// Fleet commands dial every shard from the config themselves.
		if err := cmdFleet(args[1:], *timeout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	client, err := rmswire.DialTimeout(*addr, *timeout)
	if err != nil {
		fatalf("%v", err)
	}
	defer client.Close()
	client.Timeout = *timeout

	switch args[0] {
	case "submit":
		err = cmdSubmit(client, args[1:])
	case "report":
		err = cmdReport(client, args[1:])
	case "stats":
		err = cmdStats(client)
	case "metrics":
		err = cmdMetrics(client, args[1:])
	case "checkpoint":
		err = cmdCheckpoint(client)
	case "health":
		err = cmdHealth(client)
	case "drain":
		err = cmdDrain(client)
	default:
		usage()
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func cmdSubmit(client *rmswire.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	clientID := fs.Int("client", 0, "client id")
	activities := fs.String("activities", "0", "comma-separated activity ids (0=compute,1=storage,2=print,3=display,4=network)")
	rtl := fs.String("rtl", "C", "required trust level A-F")
	eec := fs.String("eec", "", "comma-separated expected execution costs, one per machine")
	now := fs.Float64("now", 0, "submission time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	acts, err := parseActivities(*activities)
	if err != nil {
		return err
	}
	level, err := grid.ParseLevel(*rtl)
	if err != nil {
		return err
	}
	costs, err := parseFloats(*eec)
	if err != nil {
		return fmt.Errorf("bad -eec: %w", err)
	}
	p, err := client.Submit(grid.ClientID(*clientID), acts, level, costs, *now)
	if err != nil {
		return err
	}
	fmt.Printf("placement %d: machine %d (RD %d)  OTL=%s TC=%d  EEC=%.1f ESC=%.1f ECC=%.1f  start=%.1f finish=%.1f\n",
		p.ID, p.Machine, p.RD, p.OTL, p.TC, p.EEC, p.ESC, p.ECC, p.Start, p.Finish)
	return nil
}

func cmdReport(client *rmswire.Client, args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	placement := fs.Uint64("placement", 0, "placement id from submit")
	outcome := fs.Float64("outcome", 6, "observed behaviour on [1,6]")
	now := fs.Float64("now", 0, "report time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// RoundTrip, not Report: the reply says whether this call applied the
	// outcome or the daemon had applied it before.
	resp, _, err := client.RoundTrip(rmswire.Request{Op: rmswire.OpReport, PlacementID: *placement, Outcome: *outcome, Now: *now})
	if err != nil {
		return err
	}
	if resp.Replayed {
		fmt.Printf("placement %d: already applied (replayed)\n", *placement)
		return nil
	}
	fmt.Printf("reported outcome %.1f for placement %d\n", *outcome, *placement)
	return nil
}

func cmdStats(client *rmswire.Client) error {
	st, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("placed:            %d\n", st.Placed)
	fmt.Printf("open placements:   %d\n", st.OpenPlacements)
	fmt.Printf("agents processed:  %d (committed %d, rejected %d)\n",
		st.AgentsProcessed, st.AgentsCommitted, st.AgentsRejected)
	fmt.Printf("trust table:       version %d, %d entries\n", st.TableVersion, st.TableEntries)
	return nil
}

func cmdCheckpoint(client *rmswire.Client) error {
	info, err := client.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpointed: %d records compacted, boundary seq %d, %d live segment(s)\n",
		info.Compacted, info.Boundary, info.Segments)
	return nil
}

func cmdHealth(client *rmswire.Client) error {
	h, err := client.Health()
	if err != nil {
		return err
	}
	limit := func(n int) string {
		if n <= 0 {
			return "unlimited"
		}
		return strconv.Itoa(n)
	}
	fmt.Printf("status:            %s\n", h.Status)
	// Monotonic uptime plus the instance stamp: a poller that sees uptime
	// decrease or the instance change knows the daemon restarted, even if
	// the restart happened between polls.
	fmt.Printf("uptime:            %.3fs (instance %d, metrics seq %d)\n",
		float64(h.UptimeMS)/1000, h.StartUnixNanos, h.MetricsSeq)
	fmt.Printf("topology:          %d machines, %d clients\n", h.TopologyMachines, h.TopologyClients)
	fmt.Printf("connections:       %d (limit %s)\n", h.Conns, limit(h.MaxConns))
	fmt.Printf("in-flight:         %d (limit %s)\n", h.InFlight, limit(h.MaxInFlight))
	fmt.Printf("placed:            %d (%d open)\n", h.Placed, h.OpenPlacements)
	if h.Journal {
		fmt.Printf("journal:           next seq %d, %d segment(s), %d idempotency key(s)\n",
			h.JournalNextSeq, h.JournalSegments, h.IdemEntries)
	} else {
		fmt.Printf("journal:           disabled\n")
	}
	return nil
}

// cmdMetrics scrapes the daemon's metrics registry.  Text output is for
// eyeballs; -format json emits the full snapshot (including histogram
// buckets) for scripts.
func cmdMetrics(client *rmswire.Client, args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	format := fs.String("format", "text", "output format: text or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := client.Metrics()
	if err != nil {
		return err
	}
	if *format == "json" {
		blob, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(blob))
		return nil
	}
	if *format != "text" {
		return fmt.Errorf("unknown format %q", *format)
	}
	fmt.Printf("uptime:  %.3fs (instance %d, scrape seq %d)\n",
		float64(m.UptimeMS)/1000, m.StartUnixNanos, m.Seq)
	isFleet := func(name string) bool { return strings.HasPrefix(name, "fleet_") }
	fmt.Println("counters:")
	for _, name := range m.CounterNames() {
		if isFleet(name) {
			continue
		}
		fmt.Printf("  %-28s %d\n", name, m.Counters[name])
	}
	if len(m.Gauges) > 0 {
		fmt.Println("gauges:")
		for _, name := range m.GaugeNames() {
			if isFleet(name) {
				continue
			}
			fmt.Printf("  %-28s %d\n", name, m.Gauges[name])
		}
	}
	// Fleet metrics (per-peer forward/gossip counters, forward latency)
	// group under their own section so the core daemon view stays tidy.
	var fleetNames []string
	for _, name := range m.CounterNames() {
		if isFleet(name) {
			fleetNames = append(fleetNames, name)
		}
	}
	if len(fleetNames) > 0 {
		fmt.Println("fleet:")
		for _, name := range fleetNames {
			fmt.Printf("  %-36s %d\n", name, m.Counters[name])
		}
	}
	for _, name := range m.HistogramNames() {
		h := m.Histograms[name]
		if h.Count == 0 {
			continue
		}
		if strings.HasSuffix(name, "_ns") {
			const ms = 1e6
			fmt.Printf("%s: n=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms p99.9=%.3fms\n",
				name, h.Count, h.Mean()/ms,
				h.Quantile(0.5)/ms, h.Quantile(0.95)/ms, h.Quantile(0.99)/ms, h.Quantile(0.999)/ms)
		} else {
			fmt.Printf("%s: n=%d mean=%.2f p50=%.0f p95=%.0f p99=%.0f\n",
				name, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99))
		}
	}
	return nil
}

func cmdDrain(client *rmswire.Client) error {
	if err := client.Drain(); err != nil {
		return err
	}
	fmt.Println("drain requested: the daemon finishes in-flight requests, checkpoints and exits")
	return nil
}

func cmdWALInfo(args []string) error {
	fs := flag.NewFlagSet("wal-info", flag.ExitOnError)
	data := fs.String("data", "", "gridtrustd data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("wal-info requires -data")
	}
	rec, err := wal.Inspect(*data, wal.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("snapshot:      boundary seq %d\n", rec.SnapshotSeq)
	fmt.Printf("live records:  %d (next seq %d)\n", len(rec.Records), rec.NextSeq)
	fmt.Printf("segments:      %d\n", len(rec.Segments))
	for _, s := range rec.Segments {
		state := "ok"
		switch {
		case s.Dropped:
			state = "DROPPED"
		case s.TornBytes > 0:
			state = fmt.Sprintf("torn tail (%d bytes)", s.TornBytes)
		}
		fmt.Printf("  seg base %-8d %5d records %8d bytes  %s\n", s.Base, s.Records, s.Bytes, state)
	}
	if !rec.Clean() {
		fmt.Printf("damage:        %d truncated bytes, %d dropped segments, %d corrupt snapshots (repaired on next daemon start)\n",
			rec.TruncatedBytes, rec.DroppedSegments, rec.CorruptSnapshots)
	}
	return nil
}

func cmdWALDump(args []string) error {
	fs := flag.NewFlagSet("wal-dump", flag.ExitOnError)
	data := fs.String("data", "", "gridtrustd data directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *data == "" {
		return fmt.Errorf("wal-dump requires -data")
	}
	rec, err := wal.Inspect(*data, wal.Options{})
	if err != nil {
		return err
	}
	if rec.SnapshotSeq > 0 {
		fmt.Printf("snapshot@%d: %d bytes\n", rec.SnapshotSeq, len(rec.Snapshot))
	}
	for _, r := range rec.Records {
		fmt.Printf("%8d  %s\n", r.Seq, r.Payload)
	}
	return nil
}

func parseActivities(s string) ([]grid.Activity, error) {
	parts := strings.Split(s, ",")
	out := make([]grid.Activity, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad activity %q", p)
		}
		out = append(out, grid.Activity(v))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no activities given")
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gridctl [-addr host:port] {submit|report|stats|metrics|health|drain|checkpoint|wal-info|wal-dump|fleet} [flags]")
	fmt.Fprintln(os.Stderr, "       gridctl fleet {status|health|metrics|ring|gossip|drain} -config configs/fleet.json [-wait 5s]")
	os.Exit(2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gridctl: "+format+"\n", args...)
	os.Exit(1)
}
