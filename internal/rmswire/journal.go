package rmswire

// journal.go makes the daemon crash-safe: every accepted placement and
// outcome report is appended to a write-ahead log before the response
// frame leaves the server, and checkpoints fold the log into one snapshot
// so restart cost stays bounded.
//
// Records journal *results*, not requests.  A placement record carries the
// machine, timing and trust figures the heuristic chose, and replay applies
// them directly with TRMS.RecoverPlacement — re-running the heuristic
// against a replayed table could diverge, because concurrent live requests
// interleave submits and reports in an order the journal does not keep.
// Replay of placements is therefore order-insensitive; reports replay
// through ReportOutcome, which applies each one before it returns, so the
// trust engine sees the transaction stream in journal order.  The books a
// record changes are ledger.go's.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"gridtrust/internal/core"
	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/trust"
	"gridtrust/internal/wal"
)

// journal record kinds.
const (
	recPlace  = "place"
	recReport = "report"
)

// journalRecord is one WAL entry, JSON-encoded.  Place records hold the
// complete placement so recovery needs no rescheduling; report records
// reference the placement id.
type journalRecord struct {
	Kind string `json:"kind"`

	// Place fields.
	ID         uint64  `json:"id,omitempty"`
	Machine    int     `json:"machine"` // topology machine index
	MachineID  int     `json:"machine_id,omitempty"`
	RD         int     `json:"rd"`
	CD         int     `json:"cd"`
	OTL        string  `json:"otl,omitempty"`
	TC         int     `json:"tc,omitempty"`
	EEC        float64 `json:"eec,omitempty"`
	ESC        float64 `json:"esc,omitempty"`
	Start      float64 `json:"start,omitempty"`
	Finish     float64 `json:"finish,omitempty"`
	Activities []int   `json:"activities,omitempty"`

	// IdemKey, when non-empty, registers the placement in the submit
	// dedup table on replay so retried submits survive a restart without
	// double-placing.
	IdemKey string `json:"idem_key,omitempty"`

	// Report fields.
	Outcome float64 `json:"outcome,omitempty"`

	Now float64 `json:"now,omitempty"`
}

// daemonSnapshotVersion guards the checkpoint payload format.
const daemonSnapshotVersion = 1

// daemonSnapshot is the checkpoint payload: everything needed to rebuild
// the daemon at a journal boundary.  The trust fabric reuses the engine's
// own snapshot format, so its version discipline (trust.ErrSnapshotVersion)
// applies on the recovery path too.
type daemonSnapshot struct {
	Version      int               `json:"version"`
	NextID       uint64            `json:"next_id"`
	Placed       int               `json:"placed"`
	FreeTime     []float64         `json:"free_time"`
	TableVersion uint64            `json:"table_version"`
	Table        []grid.TableEntry `json:"table"`
	Trust        *trust.Snapshot   `json:"trust"`
	// Open holds the placements still awaiting an outcome report, as
	// place records.  Their scheduler effect is already inside
	// Placed/FreeTime; they are kept so late reports still resolve.
	Open []journalRecord `json:"open,omitempty"`
	// Idem holds the submit dedup table (place records with their keys),
	// including entries whose placements were already reported — a retry
	// may arrive arbitrarily late, and compaction must not forget it.
	Idem []journalRecord `json:"idem,omitempty"`
	// Agent counters at the boundary: the lifetime totals the daemon
	// acknowledged, restored so a restart's stats view matches exactly
	// (the record tail re-runs its reports through the agent on top).
	AgentsProcessed int `json:"agents_processed,omitempty"`
	AgentsCommitted int `json:"agents_committed,omitempty"`
	AgentsRejected  int `json:"agents_rejected,omitempty"`
}

// CheckpointInfo reports the outcome of a WAL checkpoint.
type CheckpointInfo struct {
	// Boundary is the first sequence NOT covered by the new snapshot.
	Boundary uint64 `json:"boundary"`
	// Compacted is how many live records the snapshot subsumed.
	Compacted uint64 `json:"compacted"`
	// Segments is the live segment-file count after compaction.
	Segments int `json:"segments"`
}

// AttachJournal replays a recovered WAL into the server's TRMS and starts
// journaling subsequent operations to log.  Call it on a freshly built
// server before ListenAndServe.  compactEvery > 0 checkpoints automatically
// once that many records accumulate past the last boundary.
func (s *Server) AttachJournal(log *wal.Log, rec *wal.Recovered, compactEvery int) error {
	if log == nil {
		return fmt.Errorf("rmswire: nil journal")
	}
	if rec != nil {
		if err := s.replay(rec); err != nil {
			return fmt.Errorf("rmswire: journal replay: %w", err)
		}
	}
	s.jmu.Lock()
	s.journal = log
	s.compactEvery = compactEvery
	s.lastBoundary = log.NextSeq()
	if rec != nil && rec.SnapshotSeq > 0 {
		s.lastBoundary = rec.SnapshotSeq
	}
	s.jmu.Unlock()
	stats := metrics.PerScrape(s.reg, log.Stats)
	s.reg.CounterFunc(MetricWALAppends, func() uint64 { return stats().Appends })
	s.reg.CounterFunc(MetricWALSyncs, func() uint64 { return stats().Syncs })
	s.reg.CounterFunc(MetricWALRotations, func() uint64 { return stats().Rotations })
	s.reg.GaugeFunc(MetricWALSegments, func() int64 { return int64(stats().Segments) })
	s.reg.GaugeFunc(MetricJournalNextSeq, func() int64 { return int64(log.NextSeq()) })
	return nil
}

// replay rebuilds daemon state from a recovered snapshot + record tail.
func (s *Server) replay(rec *wal.Recovered) error {
	if rec.Snapshot != nil {
		var snap daemonSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return fmt.Errorf("decode snapshot: %w", err)
		}
		if snap.Version != daemonSnapshotVersion {
			return fmt.Errorf("snapshot version %d, want %d", snap.Version, daemonSnapshotVersion)
		}
		if err := s.trms.RestoreSchedulerState(snap.Placed, snap.FreeTime); err != nil {
			return err
		}
		if err := s.trms.RestoreAgentStats(snap.AgentsProcessed, snap.AgentsCommitted, snap.AgentsRejected); err != nil {
			return err
		}
		if err := s.trms.Table().Restore(snap.Table, snap.TableVersion); err != nil {
			return err
		}
		if snap.Trust != nil {
			if err := s.trms.Model().Import(snap.Trust); err != nil {
				return err
			}
		}
		if err := s.books.restore(&snap); err != nil {
			return err
		}
	}
	for _, w := range rec.Records {
		var r journalRecord
		if err := recordCodec.Parse(w.Payload, &r); err != nil {
			return fmt.Errorf("decode record %d: %w", w.Seq, err)
		}
		if err := s.books.apply(&r); err != nil {
			return fmt.Errorf("record %d: %w", w.Seq, err)
		}
	}
	return nil
}

// placement rebuilds the in-memory placement a record describes.
func (r *journalRecord) placement(top *grid.Topology) (*core.Placement, grid.ToA, error) {
	machines := top.Machines()
	if r.Machine < 0 || r.Machine >= len(machines) {
		return nil, grid.ToA{}, fmt.Errorf("machine index %d of %d", r.Machine, len(machines))
	}
	toa, err := activitiesToToA(r.Activities)
	if err != nil {
		return nil, grid.ToA{}, err
	}
	otl, err := grid.ParseLevel(r.OTL)
	if err != nil {
		return nil, grid.ToA{}, err
	}
	return &core.Placement{
		Machine:    machines[r.Machine],
		MachineIdx: r.Machine,
		RD:         grid.DomainID(r.RD),
		CD:         grid.DomainID(r.CD),
		OTL:        otl,
		TC:         r.TC,
		EEC:        r.EEC,
		ESC:        r.ESC,
		ECC:        r.EEC + r.ESC,
		Start:      r.Start,
		Finish:     r.Finish,
	}, toa, nil
}

// placementInfo rebuilds the wire response a place record was acknowledged
// with, so an idempotent retry returns exactly what the original submit
// returned.
func (r *journalRecord) placementInfo() *PlacementInfo {
	return &PlacementInfo{
		ID:      r.ID,
		Machine: r.MachineID,
		RD:      r.RD,
		CD:      r.CD,
		OTL:     r.OTL,
		TC:      r.TC,
		EEC:     r.EEC,
		ESC:     r.ESC,
		ECC:     r.EEC + r.ESC,
		Start:   r.Start,
		Finish:  r.Finish,
	}
}

// placeRecord encodes a placement for the journal or a snapshot's open set.
func placeRecord(id uint64, p *core.Placement, toa grid.ToA, now float64) journalRecord {
	acts := make([]int, len(toa.Activities))
	for i, a := range toa.Activities {
		acts[i] = int(a)
	}
	return journalRecord{
		Kind:       recPlace,
		ID:         id,
		Machine:    p.MachineIdx,
		MachineID:  int(p.Machine.ID),
		RD:         int(p.RD),
		CD:         int(p.CD),
		OTL:        p.OTL.String(),
		TC:         p.TC,
		EEC:        p.EEC,
		ESC:        p.ESC,
		Start:      p.Start,
		Finish:     p.Finish,
		Activities: acts,
		Now:        now,
	}
}

// recordBufs recycles the buffers journal records are encoded into.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// journalAppend durably appends one record; a nil journal is a no-op.  The
// caller holds jmu for reading.
func (s *Server) journalAppend(r journalRecord) error {
	if s.journal == nil {
		return nil
	}
	// The log copies the payload before Append returns.  The codec takes
	// the record by pointer, which sends it to the heap: rec does that
	// here, past the check an unjournalled daemon returns at.
	buf, rec := recordBufs.Get().(*[]byte), r
	defer recordBufs.Put(buf)
	data, err := recordCodec.Append((*buf)[:0], &rec)
	*buf = data
	if err != nil {
		return fmt.Errorf("rmswire: encode journal record: %w", err)
	}
	if _, err := s.journal.Append(data); err != nil {
		// A WAL fail-stop means durability is gone for good on this
		// journal: latch the daemon into degraded mode so every further
		// mutation is refused up front instead of failing one by one.
		if errors.Is(err, wal.ErrFailStop) {
			s.degrade(err)
		}
		return fmt.Errorf("rmswire: journal append: %w", err)
	}
	return nil
}

// Checkpoint quiesces the daemon, snapshots its full state at the current
// journal position and compacts the log behind it.
func (s *Server) Checkpoint() (*CheckpointInfo, error) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	if s.journal == nil {
		return nil, fmt.Errorf("rmswire: no journal attached")
	}
	snap := s.capture()
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("rmswire: encode snapshot: %w", err)
	}
	boundary := s.journal.NextSeq()
	compacted := s.journal.LiveRecords()
	// Whether or not it succeeds, the next automatic checkpoint is
	// compactEvery records away.
	s.lastBoundary = boundary
	if err := s.journal.Snapshot(boundary, payload); err != nil {
		return nil, err
	}
	return &CheckpointInfo{
		Boundary:  boundary,
		Compacted: compacted,
		Segments:  s.journal.Stats().Segments,
	}, nil
}

// capture assembles the snapshot payload.  The caller holds jmu for
// writing, so no request is mid-way and all state is at rest.
func (s *Server) capture() *daemonSnapshot {
	placed, freeTime := s.trms.SchedulerState()
	table := s.trms.Table().Replica()
	snap := &daemonSnapshot{
		Version:      daemonSnapshotVersion,
		Placed:       placed,
		FreeTime:     freeTime,
		TableVersion: table.Version(),
		Table:        table.Since(0),
		Trust:        s.trms.Model().Export(),
	}
	snap.AgentsProcessed, snap.AgentsCommitted, snap.AgentsRejected = s.trms.AgentStats()
	s.books.export(snap)
	return snap
}

// maybeCompact checkpoints once compactEvery records accumulated past
// the last attempt; concurrent requests may each take one.  A failure is
// counted, and the next attempt waits another compactEvery records rather
// than quiescing the daemon on every request.  A degraded daemon, whose
// journal refuses every write, makes none.
func (s *Server) maybeCompact() {
	if s.journal == nil || s.compactEvery <= 0 || s.degraded.Load() {
		return
	}
	s.jmu.RLock()
	due := s.journal.NextSeq()-s.lastBoundary >= uint64(s.compactEvery)
	s.jmu.RUnlock()
	if !due {
		return
	}
	if _, err := s.Checkpoint(); err != nil {
		s.sm.autoCkptErrs.Inc()
	}
}
