package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/des"
	"gridtrust/internal/fleet"
	"gridtrust/internal/sched"
	"gridtrust/internal/trust"
	"gridtrust/internal/trustwire"
	"gridtrust/internal/wal"
	"gridtrust/internal/workload"
)

// perLayer names every per-layer metric with its unit.  A traced run
// prints all of them; a layer the workload does not exercise reads 0,
// which is the prediction README's interaction table makes for it.
var perLayer = []struct{ name, unit string }{
	// End-to-end readings that exist on one workload only.
	{"read_p50_ms", "ms"},
	{"improvement_pct", "%"},
	// Journal and write-ahead log: serve_durable.
	{"wal.append_sync_us", "us"},
	{"wal.append_nosync_us", "us"},
	{"wal.appends", "count"},
	{"wal.syncs_per_append", "ratio"},
	{"wal.bytes_per_append", "B"},
	{"wal.batch_records_p50", "count"},
	{"rmswire.checkpoint_ms", "ms"},
	// Set-up stages.
	{"wal.recover_ms", "ms"},
	{"rmswire.journal_replay_ms", "ms"},
	{"gridgen.generate_ms", "ms"},
	{"workload.generate_ms", "ms"},
	// Decision and wire path: serve_mixed, fleet3.
	{"core.submit_us", "us"},
	{"core.report_us", "us"},
	{"core.submit_allocs", "count"},
	{"rmswire.health_rtt_us", "us"},
	{"rmswire.submit_service_us", "us"},
	{"rmswire.wire_residual_us", "us"},
	{"rmswire.stats_rtt_us", "us"},
	{"metrics.scrape_us", "us"},
	// Fleet routing and gossip: fleet3.
	{"fleet.forward_ratio", "ratio"},
	{"fleet.forward_extra_us", "us"},
	{"fleet.ring_owner_ns", "ns"},
	{"fleet.forward_err", "count"},
	{"trustwire.sync_ms", "ms"},
	{"trustwire.syncs", "count"},
	// Scheduling kernels and event queue: sim_paper.
	{"sched.mct_assign_us", "us"},
	{"sched.minmin_batch_ms", "ms"},
	{"sched.sufferage_batch_ms", "ms"},
	{"des.ns_per_event", "ns"},
	{"sim.mct_tasks_per_s", "1/s"},
	{"sim.minmin_tasks_per_s", "1/s"},
	{"sim.sufferage_tasks_per_s", "1/s"},
	// Trust models: sim_trust.
	{"trust.observe_ns", "ns"},
	{"trust.trust_ns", "ns"},
	{"trust.purge_trust_ns", "ns"},
	{"trust.frtrust_trust_ns", "ns"},
	{"trust.bawa_trust_ns", "ns"},
	{"sim.purge_tasks_per_s", "1/s"},
	{"sim.frtrust_tasks_per_s", "1/s"},
	{"sim.bawa_tasks_per_s", "1/s"},
	// Memory.
	{"sim.allocs_per_task", "count"},
	{"bench.allocs_per_op", "count"},
	{"bench.gc_pause_ms", "ms"},
	// Simulated statistics, exact for a seed.
	{"sim.makespan_s", "s"},
	{"sim.mean_utilization", "ratio"},
	// Diagnostics of the measurement itself.
	{"bench.wall_ops_per_s", "1/s"},
	{"bench.op_p99_ms", "ms"},
	{"bench.cycle_p50_ms", "ms"},
	{"sim.rep_p50_ms", "ms"},
	{"bench.samples", "count"},
	{"bench.warmup_s", "s"},
	{"bench.steal_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
}

// sink keeps measured calls from being optimised away.
var sink int

const (
	shadowCycles = 1500 // cycles replayed against the shadow daemon layers
	shadowSyncs  = 300  // of which also append to a log that fsyncs
	shadowRounds = 2    // simulation rounds replayed against the kernels
	readProbes   = 300  // idle stats/health/metrics round trips
)

// shadowServe replays the recorded cycles' request ids against a second
// TRMS on the same topology and against logs of its own, one child span
// per call, and returns the per-call medians.
func shadowServe(r *rig, tr *tracer, dir string, recordBytes int) (map[string]float64, error) {
	trms, err := core.New(core.Config{Topology: r.top, Agents: agents, TCWeight: tcWeight, Trust: daemonTrust})
	if err != nil {
		return nil, err
	}
	defer trms.Close()
	synced, _, err := wal.Create(filepath.Join(dir, "shadow-sync"), wal.Options{})
	if err != nil {
		return nil, err
	}
	defer synced.Close()
	unsynced, _, err := wal.Create(filepath.Join(dir, "shadow-nosync"), wal.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	defer unsynced.Close()
	record := make([]byte, recordBytes)
	for i := range record {
		record[i] = byte('a' + i%26)
	}

	var submitH, reportH, syncH, nosyncH hist
	var mem0, mem1 runtime.MemStats
	var submitMallocs uint64
	replayed := 0
	for n := range tr.spans {
		root := tr.spans[n]
		if root.Name != "cycle" || replayed == shadowCycles {
			continue
		}
		replayed++
		i := int(root.Req & (1<<32 - 1))
		task, outcome := r.request(i)
		var offset int64
		var p *core.Placement
		runtime.ReadMemStats(&mem0)
		submitH.record(tr.shadow("core.TRMS.Submit", &root, &offset, func() {
			p, err = trms.Submit(task, float64(i))
		}))
		runtime.ReadMemStats(&mem1)
		submitMallocs += mem1.Mallocs - mem0.Mallocs
		if err != nil {
			return nil, fmt.Errorf("shadow submit %d: %w", i, err)
		}
		if r.spec.durable {
			for k := 0; k < 2 && err == nil; k++ { // one record per submit, one per report
				nosyncH.record(tr.shadow("wal.Log.Append(nosync)", &root, &offset, func() { _, err = unsynced.Append(record) }))
			}
			for k := 0; k < 2 && err == nil && replayed <= shadowSyncs; k++ {
				syncH.record(tr.shadow("wal.Log.Append", &root, &offset, func() { _, err = synced.Append(record) }))
			}
			if err != nil {
				return nil, fmt.Errorf("shadow append: %w", err)
			}
		}
		reportH.record(tr.shadow("core.TRMS.ReportOutcome", &root, &offset, func() {
			err = trms.ReportOutcome(p, task.ToA, outcome, float64(i))
		}))
		if err != nil {
			return nil, fmt.Errorf("shadow report %d: %w", i, err)
		}
	}
	m := map[string]float64{
		"core.submit_us":       submitH.us(0.5),
		"core.report_us":       reportH.us(0.5),
		"wal.append_sync_us":   syncH.us(0.5),
		"wal.append_nosync_us": nosyncH.us(0.5),
	}
	if replayed > 0 {
		m["core.submit_allocs"] = float64(submitMallocs) / float64(replayed)
	}
	return m, nil
}

// readProbe times idle stats, health and metrics round trips on the
// first client's connection.
func readProbe(r *rig, tr *tracer) (map[string]float64, error) {
	c := r.clients[0]
	c.tally = tally{}
	for n := 0; n < readProbes; n++ {
		if err := c.readCycle(tr); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"rmswire.stats_rtt_us":  c.statsH.us(0.5),
		"rmswire.health_rtt_us": c.healthH.us(0.5),
		"metrics.scrape_us":     c.scrH.us(0.5),
	}, nil
}

// fleetLayers measures what only a fleet has: the ring lookup, and a
// gossip sync of one shard's trust table over trustwire.
func fleetLayers(r *rig, tr *tracer) (map[string]float64, error) {
	ring, err := fleet.NewRing(r.cfg.Names(), r.cfg.VNodes)
	if err != nil {
		return nil, err
	}
	cds := r.top.ClientDomains()
	keys := make([]string, len(cds))
	for i, cd := range cds {
		keys[i] = fleet.CDKey(cd.ID)
	}
	const lookups = 200000
	began := time.Now()
	for i := 0; i < lookups; i++ {
		sink += ring.OwnerIndex(keys[i%len(keys)])
	}
	ringNS := float64(time.Since(began)) / lookups
	tr.add("fleet.Ring.OwnerIndex", 0, 0, began, time.Now())

	rep, err := trustwire.Dial(r.shards[0].fl.TrustAddr())
	if err != nil {
		return nil, err
	}
	defer rep.Close()
	var syncMS []float64
	for i := 0; i < 20; i++ {
		began := time.Now()
		if _, err := rep.Sync(); err != nil {
			return nil, err
		}
		tr.add("trustwire.Replica.Sync", 0, int64(i), began, time.Now())
		syncMS = append(syncMS, float64(time.Since(began))/1e6)
	}
	counters := r.counters()
	var syncs uint64
	for name, v := range counters {
		if strings.HasPrefix(name, "fleet_gossip_sync_") {
			syncs += v
		}
	}
	return map[string]float64{
		"fleet.ring_owner_ns": ringNS,
		"trustwire.sync_ms":   median(syncMS),
		"trustwire.syncs":     float64(syncs),
		"fleet.forward_err":   float64(forwardErrors(counters)),
	}, nil
}

// journalBytes reads the mean on-disk size of a journal record from the
// live segments of a closed data directory.
func journalBytes(dir string) (float64, error) {
	rec, err := wal.Inspect(dir, wal.Options{})
	if err != nil {
		return 0, err
	}
	var bytes, records float64
	for _, s := range rec.Segments {
		if !s.Dropped {
			bytes += float64(s.Bytes)
			records += float64(s.Records)
		}
	}
	if records == 0 {
		return 0, nil
	}
	return bytes / records, nil
}

// matrixCosts materialises the workload's own cost rows for the sched
// kernels, which sim reaches through an unexported adapter.
func matrixCosts(w *workload.Workload) (*sched.MatrixCosts, error) {
	exec := make([][]float64, len(w.Requests))
	tc := make([][]int, len(w.Requests))
	for r, req := range w.Requests {
		exec[r] = w.EEC.RowView(req.TaskIndex)
		tc[r] = make([]int, w.Spec.Machines)
		for m := range tc[r] {
			var err error
			if tc[r][m], err = w.TrustCost(req, m); err != nil {
				return nil, err
			}
		}
	}
	return sched.NewMatrixCosts(exec, tc)
}

// shadowSim replays the legs of the first traced rounds against the
// layers underneath sim.Run: the sched kernel the leg's heuristic uses
// and the event queue on sim_paper, the trust models on sim_trust.
func shadowSim(s *simRun, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	costs := map[*workload.Workload]*sched.MatrixCosts{}
	best := func(name string, v float64) {
		if old, ok := m[name]; !ok || v < old {
			m[name] = v
		}
	}
	rounds := 0
	for n := range tr.spans {
		parent := tr.spans[n]
		if parent.Name == "round" {
			rounds++
			if rounds <= shadowRounds && s.spec.name == "sim_trust" {
				obs, tru, err := shadowModel(tr, &parent, s.legs[0], trust.DefaultModel)
				if err != nil {
					return nil, err
				}
				best("trust.observe_ns", obs)
				best("trust.trust_ns", tru)
			}
			continue
		}
		if rounds > shadowRounds || parent.Parent == 0 {
			continue
		}
		var l *leg
		for _, cand := range s.legs {
			if parent.Name == "sim.Run:"+cand.name {
				l = cand
			}
		}
		if l == nil {
			continue
		}
		if l.sc.TrustModel != "" {
			_, tru, err := shadowModel(tr, &parent, l, l.sc.TrustModel)
			if err != nil {
				return nil, err
			}
			best("trust."+l.sc.TrustModel+"_trust_ns", tru)
			continue
		}
		c := costs[l.w]
		if c == nil {
			var err error
			if c, err = matrixCosts(l.w); err != nil {
				return nil, err
			}
			costs[l.w] = c
		}
		var offset int64
		var err error
		avail := make([]float64, l.sc.Machines)
		tasks := l.sc.Tasks
		switch l.pair {
		case "mct":
			d := tr.shadow("sched.MCT.AssignOne", &parent, &offset, func() {
				for r := 0; r < tasks && err == nil; r++ {
					_, err = sched.MCT{}.AssignOne(c, l.policy, r, avail)
				}
			})
			best("sched.mct_assign_us", float64(d)/1e3/float64(tasks))
		case "minmin", "sufferage":
			var h sched.BatchInto = sched.MinMin{}
			name := "sched.minmin_batch_ms"
			if l.pair == "sufferage" {
				h, name = sched.Sufferage{}, "sched.sufferage_batch_ms"
			}
			reqs := make([]int, tasks)
			for r := range reqs {
				reqs[r] = r
			}
			d := tr.shadow("sched."+l.pair+".AssignBatchInto", &parent, &offset, func() {
				_, err = h.AssignBatchInto(c, l.policy, reqs, avail, nil)
			})
			best(name, float64(d)/1e6)
		}
		if err != nil {
			return nil, fmt.Errorf("shadow %s: %w", l.name, err)
		}
		// One arrival and one finish event per task, as the run schedules.
		events := 2 * tasks
		d := tr.shadow("des.Queue", &parent, &offset, func() {
			q := des.NewQueue()
			kind := q.RegisterKind(func(*des.Queue, int32, int32) {})
			for e := 0; e < events && err == nil; e++ {
				_, err = q.ScheduleAt(float64(e%tasks), kind, int32(e), 0)
			}
			q.Run()
		})
		if err != nil {
			return nil, fmt.Errorf("shadow des: %w", err)
		}
		best("des.ns_per_event", float64(d)/float64(events))
	}
	return m, nil
}

// shadowModel replays the leg's workload against a fresh trust model the
// way sim's model view drives it: one Trust per (request, machine) at
// decision time, one Observe per finished task, interleaved so each
// lookup sees the history the run would have built.  It returns ns per
// Observe and per Trust call.
func shadowModel(tr *tracer, parent *span, l *leg, model string) (observeNS, trustNS float64, err error) {
	mdl, err := trust.NewModel(model, trust.Config{
		Alpha: 0.7, Beta: 0.3, InitialScore: (trust.MinScore + trust.MaxScore) / 2, UpdateBatch: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	w := l.w
	entity := func(kind string, n int) []trust.EntityID {
		ids := make([]trust.EntityID, n)
		for i := range ids {
			ids[i] = trust.EntityID(fmt.Sprintf("%s:%d", kind, i))
		}
		return ids
	}
	cds, rds := entity("cd", w.NumCDs), entity("rd", w.NumRDs)
	ctxs := make([]trust.Context, len(w.Requests))
	for i := range w.Requests {
		ctxs[i] = trust.Context(w.Requests[i].ToA.String())
	}
	machines := w.Spec.Machines
	var dTrust, dObserve time.Duration
	for r, req := range w.Requests {
		t0 := time.Now()
		for mch := 0; mch < machines; mch++ {
			if _, err := mdl.Trust(cds[req.CD], rds[w.MachineRD[mch]], ctxs[r], 0); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		rd := w.MachineRD[r%machines]
		otl, err := w.Table.OTL(req.CD, rd, req.ToA)
		if err != nil {
			return 0, 0, err
		}
		if _, err := mdl.Observe(cds[req.CD], rds[rd], ctxs[r], float64(otl), 0); err != nil {
			return 0, 0, err
		}
		dTrust += t1.Sub(t0)
		dObserve += time.Since(t1)
	}
	tr.addNS("trust."+model+".Trust", parent.ID, parent.Req, parent.Start, parent.Start+int64(dTrust))
	tr.addNS("trust."+model+".Observe", parent.ID, parent.Req, parent.Start+int64(dTrust), parent.Start+int64(dTrust+dObserve))
	n := float64(len(w.Requests))
	return float64(dObserve) / n, float64(dTrust) / (n * float64(machines)), nil
}
