// Command gridtrustd runs the trust-aware resource management system as a
// network daemon: the Figure 1 architecture (trust engine, monitoring
// agent, central trust-level table, trust-aware scheduler) behind a
// newline-delimited JSON protocol.
//
// Usage:
//
//	gridtrustd -addr 127.0.0.1:7431 -topology-seed 7
//	gridtrustd -data /var/lib/gridtrustd    # durable: WAL + checkpoints
//	gridtrustd -demo           # serve, drive a demo client, then exit
//
// With -data, every placement and outcome report is journalled to a
// write-ahead log under the directory before the response is sent, and the
// log is periodically compacted into a snapshot; a killed daemon restarted
// against the same directory resumes with its trust fabric, scheduler
// queues and open placements intact.  The directory also pins the topology
// parameters in meta.json so a restart cannot silently replay a journal
// against a different grid.
//
// Under load the daemon degrades gracefully instead of falling over:
// -max-conns and -max-inflight bound admission (excess work is shed with
// a retryable "overloaded" response carrying retry_after_ms), submits may
// carry idempotency keys so client retries never double-place, and
// SIGTERM/SIGINT (or gridctl drain) stops accepting, finishes in-flight
// requests under -drain-timeout, takes a final checkpoint and exits 0.
//
// The topology is drawn by internal/gridgen from -topology-seed; a real
// deployment would construct its grid.Topology from inventory instead.
// Protocol (one JSON object per line):
//
//	{"op":"submit","client":0,"activities":[0],"rtl":"E","eec":[100,110],"now":0,"idem_key":"k1","budget_ms":250}
//	{"op":"report","placement_id":1,"outcome":6,"now":1}
//	{"op":"stats"}
//	{"op":"checkpoint"}
//	{"op":"health"}
//	{"op":"drain"}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/fleet"
	"gridtrust/internal/grid"
	"gridtrust/internal/gridgen"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/rng"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// daemonMeta pins the parameters a data directory was created with.
// The "agents" key of directories written while the daemon had an -agents
// flag is ignored: the agent count never changed what a journal replays to.
type daemonMeta struct {
	TopologySeed uint64  `json:"topology_seed"`
	Domains      int     `json:"domains"`
	TCWeight     float64 `json:"tc_weight"`
	// TrustModel and TrustParamHash pin the trust policy: replaying a
	// journal recorded under one model into another would silently
	// recompute every trust value, so a mismatch refuses startup.
	TrustModel     string `json:"trust_model,omitempty"`
	TrustParamHash string `json:"trust_param_hash,omitempty"`
}

// checkMeta verifies dir was written under the same meta, creating the
// file on first use.
func checkMeta(dir string, meta daemonMeta) error {
	path := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		blob, merr := json.MarshalIndent(meta, "", "  ")
		if merr != nil {
			return merr
		}
		return os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		return err
	}
	var have daemonMeta
	if err := json.Unmarshal(data, &have); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	// Directories from before the trust-model zoo carry no model stamp;
	// they were necessarily written by the paper's engine.
	if have.TrustModel == "" {
		have.TrustModel = trust.DefaultModel
		if meta.TrustModel == trust.DefaultModel {
			have.TrustParamHash = meta.TrustParamHash
		}
	}
	if have != meta {
		return fmt.Errorf("%s was created with %+v, started with %+v", dir, have, meta)
	}
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7431", "listen address")
		seed     = flag.Uint64("topology-seed", 7, "seed for the generated grid topology")
		domains  = flag.Int("domains", 3, "grid domains to generate")
		tcWeight = flag.Float64("tcweight", 15, "trust-cost weight of the ESC formula")
		model    = flag.String("trust-model", "", "trust model from the registry (default: paper); see -list-models")
		listM    = flag.Bool("list-models", false, "list registered trust models and exit")
		demo     = flag.Bool("demo", false, "drive a short demo client against the daemon and exit")
		dot      = flag.Bool("dot", false, "print the topology as Graphviz DOT and exit")
		dataDir  = flag.String("data", "", "durability directory (empty disables the write-ahead log)")
		compact  = flag.Int("compact-every", 1024, "auto-checkpoint after this many journal records (0 disables; manual checkpoints always work)")

		fleetPath = flag.String("fleet", "", "fleet config (JSON, see configs/fleet.json); requires -shard and overrides -addr with the shard's configured address")
		shardName = flag.String("shard", "", "this daemon's shard name in the -fleet config")

		maxConns    = flag.Int("max-conns", 0, "max concurrent client connections (0 = unlimited); excess connections are answered with one overloaded frame and closed")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently executing requests (0 = unlimited); excess requests are shed with a retryable overloaded response")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain deadline on SIGTERM/SIGINT or gridctl drain")
	)
	flag.Parse()

	if *listM {
		for _, info := range trust.Models() {
			fmt.Printf("%-10s %s\n", info.Name, info.Description)
		}
		return
	}
	if !trust.KnownModel(*model) {
		fatalf("unknown trust model %q (see -list-models)", *model)
	}
	var fleetCfg fleet.Config
	if *fleetPath != "" {
		if *shardName == "" {
			fatalf("-fleet requires -shard")
		}
		var err error
		fleetCfg, err = fleet.LoadConfig(*fleetPath)
		if err != nil {
			fatalf("fleet: %v", err)
		}
		i := fleetCfg.Index(*shardName)
		if i < 0 {
			fatalf("fleet: shard %q not in %s (members: %v)", *shardName, *fleetPath, fleetCfg.Names())
		}
		// The fleet config is the single source of addresses: peers dial
		// this shard at its configured address, so listen exactly there.
		*addr = fleetCfg.Shards[i].Addr
	}

	top, err := gridgen.Generate(rng.New(*seed), gridgen.Spec{GridDomains: *domains})
	if err != nil {
		fatalf("topology: %v", err)
	}
	if *dot {
		if err := grid.WriteDOT(os.Stdout, top); err != nil {
			fatalf("dot: %v", err)
		}
		return
	}
	trms, err := core.New(core.Config{
		Topology:   top,
		TCWeight:   *tcWeight,
		Trust:      trust.Config{Alpha: 0.8, Beta: 0.2, Smoothing: 0.4},
		TrustModel: *model,
	})
	if err != nil {
		fatalf("TRMS: %v", err)
	}
	defer trms.Close()

	srv, err := rmswire.NewServer(trms)
	if err != nil {
		fatalf("server: %v", err)
	}
	srv.MaxConns = *maxConns
	srv.MaxInFlight = *maxInflight
	journalled := *dataDir != ""
	if *dataDir != "" {
		// Feed group-commit batch sizes into the metrics registry: the
		// observer runs on the WAL's sync path, and a histogram observe is
		// three atomic adds, well within its no-blocking contract.
		batchHist := srv.Metrics().Histogram(rmswire.MetricWALBatchRecords)
		log, rec, err := wal.Create(*dataDir, wal.Options{
			SyncObserver: func(records uint64) { batchHist.Observe(records) },
		})
		if err != nil {
			fatalf("wal: %v", err)
		}
		defer log.Close()
		tm := trms.Model()
		if err := checkMeta(*dataDir, daemonMeta{
			TopologySeed: *seed, Domains: *domains, TCWeight: *tcWeight,
			TrustModel:     tm.ModelName(),
			TrustParamHash: trust.ParamHash(tm.ModelName(), tm.ModelParams()),
		}); err != nil {
			fatalf("data dir: %v", err)
		}
		if err := srv.AttachJournal(log, rec, *compact); err != nil {
			fatalf("journal: %v", err)
		}
		if !rec.Clean() {
			fmt.Printf("wal: repaired on recovery (%d torn bytes, %d dropped segments, %d corrupt snapshots)\n",
				rec.TruncatedBytes, rec.DroppedSegments, rec.CorruptSnapshots)
		}
		fmt.Printf("wal: recovered snapshot@%d + %d records from %s\n",
			rec.SnapshotSeq, len(rec.Records), *dataDir)
	}
	// Join the fleet after the journal is attached (the placement-ID
	// namespace must be raised above what replay restored) and before
	// serving (router and status hooks are read without locks once
	// traffic starts).  All fleet chatter goes to stderr: a single-shard
	// fleet daemon must be byte-identical on stdout to a plain one.
	var fl *fleet.Fleet
	if *fleetPath != "" {
		var err error
		fl, err = fleet.Start(fleetCfg, *shardName, srv, trms)
		if err != nil {
			fatalf("fleet: %v", err)
		}
		defer fl.Close()
	}
	// Graceful drain on SIGTERM/SIGINT or a client drain op: stop
	// accepting, finish in-flight requests under the drain deadline, take
	// a final checkpoint so restart replays from one snapshot, exit 0.
	// The handler is installed before the daemon is reachable, so a
	// signal sent once a client has been served drains rather than kills.
	sig := make(chan os.Signal, 1)
	if !*demo {
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	}
	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		fatalf("listen: %v", err)
	}

	fmt.Printf("gridtrustd listening on %s\n", bound)
	if fl != nil {
		gossip := fl.TrustAddr()
		if gossip == "" {
			gossip = "none (single shard)"
		}
		fmt.Fprintf(os.Stderr, "fleet: shard %s, %d member(s), trust gossip on %s\n",
			*shardName, len(fleetCfg.Shards), gossip)
	}
	fmt.Printf("topology: %s, %d trust entries\n", grid.Summary(top), trms.Table().Replica().Len())

	if *demo {
		defer srv.Close()
		if err := runDemo(bound.String(), top); err != nil {
			fatalf("demo: %v", err)
		}
		return
	}

	select {
	case s := <-sig:
		fmt.Printf("draining: signal %v\n", s)
	case <-srv.DrainRequested():
		fmt.Println("draining: requested over the wire")
	}
	if !srv.Shutdown(*drainWait) {
		fmt.Printf("drain deadline %v exceeded; connections force-closed\n", *drainWait)
	}
	if journalled {
		if info, err := srv.Checkpoint(); err != nil {
			fmt.Fprintf(os.Stderr, "gridtrustd: final checkpoint: %v\n", err)
		} else {
			fmt.Printf("final checkpoint: boundary seq %d, %d record(s) compacted\n",
				info.Boundary, info.Compacted)
		}
	}
	fmt.Println("drained; exiting")
}

// runDemo exercises the daemon end to end with a handful of tasks.
func runDemo(addr string, top *grid.Topology) error {
	client, err := rmswire.Dial(addr)
	if err != nil {
		return err
	}
	defer client.Close()

	clientID := top.Clients()[0].ID
	nMachines := len(top.Machines())
	// Find an activity every RD supports so the demo always schedules;
	// fall back to compute.
	act := grid.ActCompute
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		supported := true
		for _, rd := range top.ResourceDomains() {
			if _, ok := rd.Supported[a]; !ok {
				supported = false
				break
			}
		}
		if supported {
			act = a
			break
		}
	}
	for i := 0; i < 5; i++ {
		eec := make([]float64, nMachines)
		for m := range eec {
			eec[m] = 100 + float64((i*7+m*13)%40)
		}
		p, err := client.Submit(clientID, []grid.Activity{act}, grid.LevelD, eec, float64(i*10))
		if err != nil {
			return fmt.Errorf("submit %d: %w", i, err)
		}
		fmt.Printf("demo: task %d → machine %d (RD %d), TC=%d, ECC=%.1f\n",
			i, p.Machine, p.RD, p.TC, p.ECC)
		if err := client.Report(p.ID, 5.5, float64(i*10+5)); err != nil {
			return fmt.Errorf("report %d: %w", i, err)
		}
	}
	st, err := client.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("demo: placed=%d agents processed=%d committed=%d table v%d\n",
		st.Placed, st.AgentsProcessed, st.AgentsCommitted, st.TableVersion)
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gridtrustd: "+format+"\n", args...)
	os.Exit(1)
}
