package rmswire

import (
	"fmt"
	"sort"
	"sync"

	"gridtrust/internal/core"
	"gridtrust/internal/grid"
)

// ledger is the daemon's books: the placement-id counter, the placements
// awaiting a report, the submit idempotency table, and the keys and ids
// whose request is executing.  Replay changes them by restore of a
// snapshot and apply of each journal record.  A live request changes
// them by reservation steps, in an order replay never needs:
//
//   - open mints an id and opens it in one critical section, so a report
//     never finds an id minted but not open and is told it was replayed;
//   - ack records a key only after its place record is durably appended,
//     so an idempotent hit never vouches for a placement the journal lacks;
//   - RPT-ORDER (DESIGN.md §12) is reserveReport, apply to the TRMS,
//     journal, settle: until settle no other report may close the id.
//
// nextID only rises: open increments it, apply and restore take the max.
type ledger struct {
	trms *core.TRMS

	mu          sync.Mutex
	nextID      uint64
	placements  map[uint64]openPlacement
	idem        map[string]journalRecord // acknowledged keys, kept forever
	idemPending map[string]struct{}      // keys whose first attempt executes
	reporting   map[uint64]struct{}      // open ids whose report executes
}

// openPlacement pairs a placement with the ToA it was submitted under so
// ReportOutcome can attribute per-activity transactions.
type openPlacement struct {
	p   *core.Placement
	toa grid.ToA
}

func newLedger(trms *core.TRMS) *ledger {
	return &ledger{
		trms:        trms,
		placements:  make(map[uint64]openPlacement),
		idem:        make(map[string]journalRecord),
		idemPending: make(map[string]struct{}),
		reporting:   make(map[uint64]struct{}),
	}
}

// apply replays one journal record: its book entries and the TRMS call
// the live request made.  It is the one place that tells record kinds
// apart.
func (l *ledger) apply(r *journalRecord) error {
	switch r.Kind {
	case recPlace:
		if err := l.trms.RecoverPlacement(r.Machine, r.Finish); err != nil {
			return err
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		if r.IdemKey != "" {
			l.idem[r.IdemKey] = *r
		}
		l.nextID = max(l.nextID, r.ID)
		return l.openLocked(r)
	case recReport:
		op, c := l.reserveReport(r.ID)
		if c != claimed {
			return fmt.Errorf("report for unknown placement %d", r.ID)
		}
		l.settle(r.ID, true)
		return l.trms.ReportOutcome(op.p, op.toa, r.Outcome, r.Now)
	}
	return fmt.Errorf("unknown kind %q", r.Kind)
}

// openLocked opens the placement a place record describes.
func (l *ledger) openLocked(r *journalRecord) error {
	p, toa, err := r.placement(l.trms.Topology())
	if err != nil {
		return fmt.Errorf("placement %d: %w", r.ID, err)
	}
	l.placements[r.ID] = openPlacement{p: p, toa: toa}
	return nil
}

// claim is what a reservation step found.
type claim int

const (
	claimed  claim = iota // the caller holds the key or id until it releases or settles it
	inFlight              // another request holds it
	answered              // the key is acknowledged, or the id was minted here and closed
	unknown               // the id was never minted here
)

// reserveKey claims a submit key unless it is acknowledged or in flight.
func (l *ledger) reserveKey(key string) (journalRecord, claim) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec, ok := l.idem[key]; ok {
		return rec, answered
	}
	if _, ok := l.idemPending[key]; ok {
		return journalRecord{}, inFlight
	}
	l.idemPending[key] = struct{}{}
	return journalRecord{}, claimed
}

// releaseKey ends the claim reserveKey made.
func (l *ledger) releaseKey(key string) {
	l.mu.Lock()
	delete(l.idemPending, key)
	l.mu.Unlock()
}

// open mints the next placement id and opens the placement under it.
func (l *ledger) open(p *core.Placement, toa grid.ToA) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID++
	l.placements[l.nextID] = openPlacement{p: p, toa: toa}
	return l.nextID
}

// ack records a journalled place record under its key, if it has one.
func (l *ledger) ack(rec journalRecord) {
	if rec.IdemKey != "" {
		l.mu.Lock()
		l.idem[rec.IdemKey] = rec
		l.mu.Unlock()
	}
}

// reserveReport claims an open placement for its report.  An id that is
// neither open nor claimed was closed by an earlier report if this daemon
// minted it: inside its id namespace, which nextID carries in its high
// bits, and at or below the last id issued.  So no table of closed ids
// is kept.
func (l *ledger) reserveReport(id uint64) (openPlacement, claim) {
	l.mu.Lock()
	defer l.mu.Unlock()
	op, open := l.placements[id]
	if _, ok := l.reporting[id]; ok {
		return op, inFlight
	}
	if open {
		l.reporting[id] = struct{}{}
		return op, claimed
	}
	if id <= l.nextID && id>>ShardIDShift == l.nextID>>ShardIDShift && id&(1<<ShardIDShift-1) != 0 {
		return op, answered
	}
	return op, unknown
}

// settle ends the claim reserveReport made, closing the placement or
// leaving it open.  A report whose journal append failed is never
// settled, so a duplicate neither hears it landed nor applies it again.
func (l *ledger) settle(id uint64, closed bool) {
	l.mu.Lock()
	if closed {
		delete(l.placements, id)
	}
	delete(l.reporting, id)
	l.mu.Unlock()
}

// known reports whether a submit key is acknowledged or claimed here.
func (l *ledger) known(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, acked := l.idem[key]
	_, pending := l.idemPending[key]
	return acked || pending
}

// counts returns the number of open placements and of idempotency keys.
func (l *ledger) counts() (open, idem int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.placements), len(l.idem)
}

// export writes the snapshot's next_id, and its open and idem records
// sorted by id and by key.
func (l *ledger) export(snap *daemonSnapshot) {
	l.mu.Lock()
	snap.NextID = l.nextID
	for id, op := range l.placements {
		snap.Open = append(snap.Open, placeRecord(id, op.p, op.toa, 0))
	}
	for _, rec := range l.idem {
		snap.Idem = append(snap.Idem, rec)
	}
	l.mu.Unlock()
	sort.Slice(snap.Open, func(i, j int) bool { return snap.Open[i].ID < snap.Open[j].ID })
	sort.Slice(snap.Idem, func(i, j int) bool { return snap.Idem[i].IdemKey < snap.Idem[j].IdemKey })
}

// restore loads what export wrote.
func (l *ledger) restore(snap *daemonSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID = max(l.nextID, snap.NextID)
	for i := range snap.Open {
		if err := l.openLocked(&snap.Open[i]); err != nil {
			return err
		}
	}
	for _, r := range snap.Idem {
		if r.IdemKey != "" {
			l.idem[r.IdemKey] = r
		}
	}
	return nil
}
