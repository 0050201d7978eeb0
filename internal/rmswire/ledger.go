package rmswire

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
//
// A submit key comes in two kinds.  A client's key is kept for the life
// of the books.  A key a fleet router minted for a keyless forwarded
// submit (ForwardKey) is kept in its entry-shard instance's window: the
// records of that instance's ForwardKeyWindow highest sequence numbers.
// A minted key below a full window is stale, answered neither as a
// replay nor by a fresh placement.  The window is a function of the set
// of acknowledged keys alone, so ack, apply and restore agree on it in
// any order, and the snapshot needs no field to say where it starts.
type ledger struct {
	trms *core.TRMS

	mu          sync.Mutex
	nextID      uint64
	placements  map[uint64]openPlacement
	idem        map[string]journalRecord // acknowledged client keys, kept forever
	minted      map[string]*keyWindow    // acknowledged minted keys, by instance
	mintedLen   int                      // records across every minted window
	idemPending map[string]struct{}      // keys whose first attempt executes
	reporting   map[uint64]struct{}      // open ids whose report executes
}

// ForwardKeyWindow is how many minted keys the books keep per entry-shard
// instance.  It is a constant, not a setting: it only has to outlast a
// forward's own retries.  At fleet3's ~2.8 k forwarded submits/s per
// (entry, owner) pair 1 024 keys span ~360 ms, ten times the 35 ms of
// backoff in the default four forward attempts, so a reset-and-retry
// still finds its placement.  A retry that waited out a whole op timeout
// may find its key stale: it is refused as overloaded, which is as
// ambiguous to the client as running out of attempts, and never placed
// twice.  An owner's minted-key books are thus O(entry-shard restarts x W).
const ForwardKeyWindow = 1024

// forwardKeyPrefix starts every minted key; ForwardKey and
// parseForwardKey are the only code that knows the form.
const forwardKeyPrefix = "fwd-"

// ForwardKey is the idempotency key a fleet router mints for the seq-th
// keyless submit it forwards in one process lifetime (instance), entering
// through shard: fwd-<shard>-<instance>-<seq>.
func ForwardKey(shard string, instance int64, seq uint64) string {
	var buf [64]byte
	b := append(buf[:0], forwardKeyPrefix...)
	b = append(b, shard...)
	b = append(b, '-')
	b = strconv.AppendInt(b, instance, 10)
	b = append(b, '-')
	b = strconv.AppendUint(b, seq, 10)
	return string(b)
}

// parseForwardKey splits a minted key into its instance, the key minus
// its last -<seq> field, and its seq.  Only the form ForwardKey writes
// for a seq of at least 1 parses — fwd-, a shard, -, an int64 and -, a
// uint64, each number as strconv writes it — so no two keys share an
// (instance, seq); any other key is a client's.  A client that sends a
// key of this form has it kept like a minted one.
func parseForwardKey(key string) (instance string, seq uint64, ok bool) {
	i := strings.LastIndexByte(key, '-')
	if !strings.HasPrefix(key, forwardKeyPrefix) || i < len(forwardKeyPrefix) {
		return "", 0, false
	}
	// A negative instance reads as a shard ending in '-' and its
	// magnitude, which ForwardKey writes too, so the instance field is
	// the digits after the key's second-to-last '-'.
	j := strings.LastIndexByte(key[:i], '-')
	_, instOK := decimal(key[j+1:i], 63)
	seq, seqOK := decimal(key[i+1:], 64)
	if j < len(forwardKeyPrefix) || !instOK || !seqOK || seq == 0 {
		return "", 0, false
	}
	return key[:i], seq, true
}

// decimal parses s as strconv writes a non-negative number of at most
// bits bits: digits only, and no leading zero but in "0" itself.
func decimal(s string, bits int) (uint64, bool) {
	n, err := strconv.ParseUint(s, 10, bits)
	return n, err == nil && (s[0] != '0' || len(s) == 1)
}

// keyWindow holds one instance's acknowledged minted records, ascending
// by seq: recs[head:] are live, and an evicted record's slot is zeroed
// until the live run is moved down, which happens once head reaches
// ForwardKeyWindow.  An acknowledgement in seq order thus costs O(1)
// moves amortised; one d places out of order moves d more.
type keyWindow struct {
	recs []windowRecord
	head int
}

type windowRecord struct {
	seq uint64
	rec journalRecord
}

// find returns the live record for seq.
func (w *keyWindow) find(seq uint64) (journalRecord, bool) {
	live := w.recs[w.head:]
	i := sort.Search(len(live), func(i int) bool { return live[i].seq >= seq })
	if i < len(live) && live[i].seq == seq {
		return live[i].rec, true
	}
	return journalRecord{}, false
}

// stale reports whether seq is below a full window.
func (w *keyWindow) stale(seq uint64) bool {
	live := w.recs[w.head:]
	return len(live) == ForwardKeyWindow && seq < live[0].seq
}

// add keeps rec under seq unless seq is stale, evicting the lowest seq
// once the window is over full, and returns the change in live records.
func (w *keyWindow) add(seq uint64, rec journalRecord) int {
	if w.stale(seq) {
		return 0
	}
	live := w.recs[w.head:]
	i := len(live)
	if i > 0 && seq <= live[i-1].seq {
		// Out of order: forwards from one entry shard race each other.
		i = sort.Search(len(live), func(i int) bool { return live[i].seq >= seq })
		if live[i].seq == seq {
			live[i].rec = rec
			return 0
		}
	}
	if w.head >= ForwardKeyWindow {
		n := copy(w.recs, live)
		clear(w.recs[n:])
		w.recs, w.head = w.recs[:n], 0
	}
	w.recs = append(w.recs, windowRecord{})
	live = w.recs[w.head:]
	copy(live[i+1:], live[i:])
	live[i] = windowRecord{seq: seq, rec: rec}
	if len(live) <= ForwardKeyWindow {
		return 1
	}
	w.recs[w.head] = windowRecord{}
	w.head++
	return 0
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
		minted:      make(map[string]*keyWindow),
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
		l.keepLocked(r)
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
	unknown               // the id was never minted here, or the key is not acknowledged
	stale                 // the minted key is below its instance's full window
)

// keepLocked records a place record under its key, if it has one.
func (l *ledger) keepLocked(r *journalRecord) {
	if r.IdemKey == "" {
		return
	}
	inst, seq, ok := parseForwardKey(r.IdemKey)
	if !ok {
		l.idem[r.IdemKey] = *r
		return
	}
	w := l.minted[inst]
	if w == nil {
		w = new(keyWindow)
		l.minted[inst] = w
	}
	l.mintedLen += w.add(seq, *r)
}

// lookupLocked finds an acknowledged key's record, or says it is stale.
func (l *ledger) lookupLocked(key string) (journalRecord, claim) {
	inst, seq, ok := parseForwardKey(key)
	if !ok {
		if rec, ok := l.idem[key]; ok {
			return rec, answered
		}
		return journalRecord{}, unknown
	}
	if w := l.minted[inst]; w != nil {
		if rec, ok := w.find(seq); ok {
			return rec, answered
		}
		if w.stale(seq) {
			return journalRecord{}, stale
		}
	}
	return journalRecord{}, unknown
}

// reserveKey claims a submit key unless it is acknowledged, stale or in
// flight.
func (l *ledger) reserveKey(key string) (journalRecord, claim) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec, c := l.lookupLocked(key); c != unknown {
		return rec, c
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
		l.keepLocked(&rec)
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

// known reports whether a submit key is acknowledged, stale or claimed
// here.
func (l *ledger) known(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, c := l.lookupLocked(key)
	_, pending := l.idemPending[key]
	return c != unknown || pending
}

// counts returns the number of open placements and of idempotency keys.
func (l *ledger) counts() (open, idem int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.placements), len(l.idem) + l.mintedLen
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
	for _, w := range l.minted {
		for _, r := range w.recs[w.head:] {
			snap.Idem = append(snap.Idem, r.rec)
		}
	}
	l.mu.Unlock()
	sort.Slice(snap.Open, func(i, j int) bool { return snap.Open[i].ID < snap.Open[j].ID })
	sort.Slice(snap.Idem, func(i, j int) bool { return snap.Idem[i].IdemKey < snap.Idem[j].IdemKey })
}

// restore loads what export wrote.  Its records are in key order, not
// seq order, so minted ones are sorted by seq first: a window then fills
// by appends, however many keys a snapshot written before the window
// holds.
func (l *ledger) restore(snap *daemonSnapshot) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextID = max(l.nextID, snap.NextID)
	for i := range snap.Open {
		if err := l.openLocked(&snap.Open[i]); err != nil {
			return err
		}
	}
	type mintedAt struct {
		seq uint64
		i   int
	}
	var minted []mintedAt
	for i := range snap.Idem {
		if _, seq, ok := parseForwardKey(snap.Idem[i].IdemKey); ok {
			minted = append(minted, mintedAt{seq, i})
			continue
		}
		l.keepLocked(&snap.Idem[i])
	}
	sort.Slice(minted, func(a, b int) bool { return minted[a].seq < minted[b].seq })
	for _, m := range minted {
		l.keepLocked(&snap.Idem[m.i])
	}
	return nil
}
