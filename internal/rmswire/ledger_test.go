package rmswire

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"gridtrust/internal/rng"
)

// mintedRecord is a place record under the seq-th key instance minted;
// its id is the seq, so a test can tell records apart by id.
func mintedRecord(instance string, seq uint64) journalRecord {
	return journalRecord{Kind: recPlace, ID: seq, OTL: "C", IdemKey: fmt.Sprintf("%s-%d", instance, seq)}
}

// heldSeqs is the seqs the books keep for instance, ascending.
func heldSeqs(l *ledger, instance string) []uint64 {
	var snap daemonSnapshot
	l.export(&snap)
	var seqs []uint64
	for _, r := range snap.Idem {
		if inst, seq, ok := parseForwardKey(r.IdemKey); ok && inst == instance {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func seqRange(lo, hi uint64) []uint64 {
	var s []uint64
	for q := lo; q <= hi; q++ {
		s = append(s, q)
	}
	return s
}

func TestForwardKeyForm(t *testing.T) {
	for _, c := range []struct {
		shard    string
		instance int64
		seq      uint64
		key      string
	}{
		{"s1", 1792391658962852561, 7, "fwd-s1-1792391658962852561-7"},
		{"east-2", -3, 18446744073709551615, "fwd-east-2--3-18446744073709551615"},
		{"", 0, 1, "fwd--0-1"},
		{"s1", math.MaxInt64, 1, "fwd-s1-9223372036854775807-1"},
	} {
		key := ForwardKey(c.shard, c.instance, c.seq)
		if key != c.key {
			t.Errorf("ForwardKey(%q, %d, %d) = %q, want %q", c.shard, c.instance, c.seq, key, c.key)
		}
		inst, seq, ok := parseForwardKey(key)
		if want := fmt.Sprintf("fwd-%s-%d", c.shard, c.instance); !ok || inst != want || seq != c.seq {
			t.Errorf("parseForwardKey(%q) = %q, %d, %v; want %q, %d, true", key, inst, seq, ok, want, c.seq)
		}
	}
	// Only the form ForwardKey writes parses, so no two keys share an
	// (instance, seq): everything else is a client's key.
	for _, key := range []string{
		"", "k", "fwd-", "fwd-7", "fwd--", "fwd-s1-5-", "fwd-s1-5-0", "fwd-s1-5-007",
		"fwd-s1-5-+7", "fwd-s1-5-7x", "fwd-s1-5-18446744073709551616", "xfwd-s1-5-7", "FWD-s1-5-7",
		"fwd--5", "fwd-x-5", "fwd-s1-x-5", "fwd-s1-05-7", "fwd-s1-+5-7", "fwd-s1-9223372036854775808-7",
	} {
		if inst, seq, ok := parseForwardKey(key); ok {
			t.Errorf("parseForwardKey(%q) = %q, %d, true; want a client key", key, inst, seq)
		}
	}
}

// TestWindowHoldsTheHighestSeqs acknowledges 3W minted keys in order:
// the books keep the W highest, replay each of them, answer every lower
// one stale, and count W keys.
func TestWindowHoldsTheHighestSeqs(t *testing.T) {
	const inst = "fwd-s0-11"
	l := newLedger(nil)
	for seq := uint64(1); seq <= 3*ForwardKeyWindow; seq++ {
		l.ack(mintedRecord(inst, seq))
	}
	if _, idem := l.counts(); idem != ForwardKeyWindow {
		t.Errorf("counts() idem = %d, want %d", idem, ForwardKeyWindow)
	}
	if got, want := heldSeqs(l, inst), seqRange(2*ForwardKeyWindow+1, 3*ForwardKeyWindow); !reflect.DeepEqual(got, want) {
		t.Fatalf("window holds %d seqs %v…, want %d from %d", len(got), got[:min(3, len(got))], len(want), want[0])
	}
	for _, seq := range []uint64{1, 2 * ForwardKeyWindow, 2*ForwardKeyWindow + 1, 3 * ForwardKeyWindow, 3*ForwardKeyWindow + 1} {
		key := fmt.Sprintf("%s-%d", inst, seq)
		rec, c := l.reserveKey(key)
		switch {
		case seq <= 2*ForwardKeyWindow:
			if c != stale || !l.known(key) {
				t.Errorf("key %s: claim %d known %v, want stale and known", key, c, l.known(key))
			}
		case seq <= 3*ForwardKeyWindow:
			if c != answered || rec.ID != seq {
				t.Errorf("key %s: claim %d id %d, want answered with id %d", key, c, rec.ID, seq)
			}
		default:
			if c != claimed {
				t.Errorf("key %s: claim %d, want claimed", key, c)
			}
			l.releaseKey(key)
		}
	}
	if w := l.minted[inst]; len(w.recs) > 2*ForwardKeyWindow+1 {
		t.Errorf("window slice grew to %d records for %d live", len(w.recs), len(w.recs)-w.head)
	}
}

// TestShuffledAckOrderGivesTheSameWindow: racing forwards acknowledge out
// of order, replay applies in journal order and restore in key order;
// every order keeps the same W records.
func TestShuffledAckOrderGivesTheSameWindow(t *testing.T) {
	const inst, n = "fwd-s2-5", 3*ForwardKeyWindow + 17
	recs := make([]journalRecord, n)
	for i := range recs {
		recs[i] = mintedRecord(inst, uint64(i+1))
	}
	want := seqRange(n-ForwardKeyWindow+1, n)
	r := rng.New(9)
	for trial := 0; trial < 4; trial++ {
		r.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		if trial == 3 {
			// Nearly sorted: each key a few places from its own.
			sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
			for i := 0; i+4 <= len(recs); i += 4 {
				r.Shuffle(4, func(a, b int) { recs[i+a], recs[i+b] = recs[i+b], recs[i+a] })
			}
		}
		l := newLedger(nil)
		for _, rec := range recs {
			l.ack(rec)
		}
		if got := heldSeqs(l, inst); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: window holds %d seqs from %d, want %d from %d", trial, len(got), got[0], len(want), want[0])
		}
		if _, idem := l.counts(); idem != ForwardKeyWindow {
			t.Fatalf("trial %d: counts() idem = %d, want %d", trial, idem, ForwardKeyWindow)
		}
	}
}

// TestWindowInstancesAreIndependent: a busy instance's window never
// evicts or stales another instance's keys.
func TestWindowInstancesAreIndependent(t *testing.T) {
	l := newLedger(nil)
	for seq := uint64(1); seq <= 2*ForwardKeyWindow; seq++ {
		l.ack(mintedRecord("fwd-s1-1", seq))
		if seq <= 10 {
			l.ack(mintedRecord("fwd-s1-2", seq))
		}
	}
	if got := heldSeqs(l, "fwd-s1-2"); !reflect.DeepEqual(got, seqRange(1, 10)) {
		t.Errorf("quiet instance holds %v, want 1..10", got)
	}
	if _, c := l.reserveKey("fwd-s1-2-1"); c != answered {
		t.Errorf("quiet instance's first key: claim %d, want answered", c)
	}
	if _, c := l.reserveKey("fwd-s1-1-1"); c != stale {
		t.Errorf("busy instance's first key: claim %d, want stale", c)
	}
	if _, c := l.reserveKey("fwd-s1-3-1"); c != claimed {
		t.Errorf("unseen instance's first key: claim %d, want claimed", c)
	}
	if _, idem := l.counts(); idem != ForwardKeyWindow+10 {
		t.Errorf("counts() idem = %d, want %d", idem, ForwardKeyWindow+10)
	}
}

// TestClientKeysAreNeverEvicted: client keys, including ones that merely
// start like a minted key, stay beside any amount of minted traffic.
func TestClientKeysAreNeverEvicted(t *testing.T) {
	l := newLedger(nil)
	var client []string
	for seq := uint64(1); seq <= 3*ForwardKeyWindow; seq++ {
		key := fmt.Sprintf("w1-%06d", seq)
		if seq%100 == 0 {
			key = fmt.Sprintf("fwd-s1-1-0%d", seq) // not ForwardKey's form
		}
		client = append(client, key)
		l.ack(journalRecord{Kind: recPlace, ID: 1<<40 + seq, IdemKey: key})
		l.ack(mintedRecord("fwd-s1-1", seq))
	}
	for i, key := range client {
		if rec, c := l.reserveKey(key); c != answered || rec.ID != 1<<40+uint64(i+1) {
			t.Fatalf("client key %s: claim %d id %d, want answered", key, c, rec.ID)
		}
	}
	if _, idem := l.counts(); idem != len(client)+ForwardKeyWindow {
		t.Errorf("counts() idem = %d, want %d", idem, len(client)+ForwardKeyWindow)
	}
}

// TestClientKeysShapedLikeMintedOnesReplay: a client's keys that start
// like a minted key but that ForwardKey cannot write (no shard, or an
// instance that is not a number) are kept for the life of the books.
// Behind ForwardKeyWindow more keys of the same shape, a retry of the
// first still replays its placement instead of being refused as stale.
func TestClientKeysShapedLikeMintedOnesReplay(t *testing.T) {
	srv := booksServer(t)
	defer srv.trms.Close()
	for _, prefix := range []string{"fwd-", "fwd-x", "fwd-s1-x"} {
		submit := func(seq int) Response {
			return respondTo(srv, Request{Op: OpSubmit, Client: 0, Activities: []int{0}, RTL: "D",
				EEC: []float64{10, 11}, IdemKey: fmt.Sprintf("%s-%d", prefix, seq), Now: float64(seq)})
		}
		first := submit(1)
		if first.Status != StatusOK {
			t.Fatalf("%s-1: %+v", prefix, first)
		}
		for seq := 2; seq <= ForwardKeyWindow+1; seq++ {
			if resp := submit(seq); resp.Status != StatusOK {
				t.Fatalf("%s-%d: %+v", prefix, seq, resp)
			}
		}
		placed := srv.trms.Placed()
		if resp := submit(1); resp.Status != StatusOK || *resp.Placement != *first.Placement {
			t.Errorf("retry of client key %s-1 behind %d more: %+v, want its placement %+v",
				prefix, ForwardKeyWindow, resp, first.Placement)
		}
		if got := srv.trms.Placed(); got != placed {
			t.Errorf("%s: placed %d after the retry, want %d", prefix, got, placed)
		}
	}
}

// TestRestoreKeepsTheTopWindow: a snapshot written before the window
// (every minted key ever acknowledged, in key order) restores into the
// W highest seqs per instance, beside every client key.
func TestRestoreKeepsTheTopWindow(t *testing.T) {
	const n = 60000
	snap := &daemonSnapshot{}
	for seq := uint64(1); seq <= n; seq++ {
		snap.Idem = append(snap.Idem, mintedRecord("fwd-s0-42", seq))
	}
	snap.Idem = append(snap.Idem, mintedRecord("fwd-s0-43", 1), journalRecord{Kind: recPlace, ID: 7, IdemKey: "client"})
	sort.Slice(snap.Idem, func(i, j int) bool { return snap.Idem[i].IdemKey < snap.Idem[j].IdemKey })
	l := newLedger(nil)
	if err := l.restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := heldSeqs(l, "fwd-s0-42"); !reflect.DeepEqual(got, seqRange(n-ForwardKeyWindow+1, n)) {
		t.Errorf("restored window holds %d seqs from %d, want %d from %d", len(got), got[0], ForwardKeyWindow, n-ForwardKeyWindow+1)
	}
	if _, idem := l.counts(); idem != ForwardKeyWindow+2 {
		t.Errorf("counts() idem = %d, want %d", idem, ForwardKeyWindow+2)
	}
	// Export then restore again is the identity.
	var out daemonSnapshot
	l.export(&out)
	again := newLedger(nil)
	if err := again.restore(&out); err != nil {
		t.Fatal(err)
	}
	var back daemonSnapshot
	again.export(&back)
	if !reflect.DeepEqual(out.Idem, back.Idem) {
		t.Error("export → restore → export changed the idempotency records")
	}
}

// TestStaleForwardKeyIsRefusedAndNotPlaced drives forwarded submits into
// a daemon: past a full window, a retry of a key below it is answered as
// a retryable overload, counted as one, and places nothing, while a key
// inside it replays its placement.
func TestStaleForwardKeyIsRefusedAndNotPlaced(t *testing.T) {
	srv := booksServer(t)
	defer srv.trms.Close()
	submit := func(seq uint64) Response {
		return respondTo(srv, Request{Op: OpSubmit, Client: 0, Activities: []int{0}, RTL: "D",
			EEC: []float64{10, 11}, IdemKey: ForwardKey("s1", 77, seq), Forwarded: true, Now: float64(seq)})
	}
	first := map[uint64]PlacementInfo{}
	for seq := uint64(1); seq <= ForwardKeyWindow+5; seq++ {
		resp := submit(seq)
		if resp.Status != StatusOK {
			t.Fatalf("submit %d: %+v", seq, resp)
		}
		first[seq] = *resp.Placement
	}
	placed := srv.trms.Placed()
	counters := func() map[string]uint64 { return srv.Metrics().Snapshot().Counters }
	before := counters()
	for _, seq := range []uint64{1, 5} {
		if resp := submit(seq); resp.Status != StatusOverloaded || resp.RetryAfterMS <= 0 || resp.Placement != nil {
			t.Errorf("retry of stale key %d: %+v, want a retryable overload", seq, resp)
		}
	}
	for _, seq := range []uint64{6, ForwardKeyWindow + 5} {
		if resp := submit(seq); resp.Status != StatusOK || *resp.Placement != first[seq] {
			t.Errorf("retry of in-window key %d: %+v, want its placement %+v", seq, resp, first[seq])
		}
	}
	after := counters()
	if got := srv.trms.Placed(); got != placed {
		t.Errorf("placed %d after the retries, want %d", got, placed)
	}
	if d := after[MetricOverloadReplies] - before[MetricOverloadReplies]; d != 2 {
		t.Errorf("overload_replies_total rose by %d, want 2", d)
	}
	if d := after[MetricIdemHits] - before[MetricIdemHits]; d != 2 {
		t.Errorf("idem_hits_total rose by %d, want 2", d)
	}
	if h := srv.handleHealth().Health; h.IdemEntries != ForwardKeyWindow {
		t.Errorf("health idem_entries = %d, want %d", h.IdemEntries, ForwardKeyWindow)
	}
}

// TestFullWindowKeepsItsOldestKey fills one instance's window to exactly
// ForwardKeyWindow keys: a retry of the lowest kept seq replays its
// placement, the seq just below it is refused as a retryable overload
// that places nothing, and the lowest kept seq acknowledged again keeps
// its slot with the new record.
func TestFullWindowKeepsItsOldestKey(t *testing.T) {
	const lo = 2 // seq 1 is the one below the window
	srv := booksServer(t)
	defer srv.trms.Close()
	submit := func(seq uint64) Response {
		return respondTo(srv, Request{Op: OpSubmit, Client: 0, Activities: []int{0}, RTL: "D",
			EEC: []float64{10, 11}, IdemKey: ForwardKey("s1", 9, seq), Forwarded: true, Now: float64(seq)})
	}
	var oldest PlacementInfo
	for seq := uint64(lo); seq < lo+ForwardKeyWindow; seq++ {
		resp := submit(seq)
		if resp.Status != StatusOK {
			t.Fatalf("submit %d: %+v", seq, resp)
		}
		if seq == lo {
			oldest = *resp.Placement
		}
	}
	placed := srv.trms.Placed()
	if resp := submit(lo); resp.Status != StatusOK || *resp.Placement != oldest {
		t.Errorf("retry of the lowest kept seq %d: %+v, want its placement %+v", lo, resp, oldest)
	}
	if resp := submit(lo - 1); resp.Status != StatusOverloaded || resp.RetryAfterMS <= 0 || resp.Placement != nil {
		t.Errorf("retry of seq %d, just below the window: %+v, want a retryable overload", lo-1, resp)
	}
	if got := srv.trms.Placed(); got != placed {
		t.Errorf("placed %d after the retries, want %d", got, placed)
	}

	w := srv.books.minted["fwd-s1-9"]
	again := mintedRecord("fwd-s1-9", lo)
	if n := w.add(lo, again); n != 0 {
		t.Errorf("acknowledging seq %d again changed the live count by %d", lo, n)
	}
	if rec, ok := w.find(lo); !ok || rec.ID != again.ID {
		t.Errorf("seq %d acknowledged again: found %v id %d, want the new record (id %d)", lo, ok, rec.ID, again.ID)
	}
}

// TestReportOfAnotherShardsIDIsUnknown: a shard whose ids start at
// 1<<ShardIDShift never minted a shard-0 id, however low; a report for
// one is an unknown placement, not a replay of a closed one.
func TestReportOfAnotherShardsIDIsUnknown(t *testing.T) {
	srv := booksServer(t)
	defer srv.trms.Close()
	srv.SetNextIDBase(1 << ShardIDShift)
	placed := respondTo(srv, Request{Op: OpSubmit, Client: 0, Activities: []int{0}, RTL: "D", EEC: []float64{10, 11}})
	if placed.Status != StatusOK || placed.Placement.ID != 1<<ShardIDShift|1 {
		t.Fatalf("submit: %+v, want placement %d", placed, 1<<ShardIDShift|1)
	}
	const id = 5 // shard 0's, below this shard's next id, low part non-zero
	resp := respondTo(srv, Request{Op: OpReport, PlacementID: id, Outcome: 5, Now: 1})
	if want := fmt.Sprintf("unknown placement %d", id); resp.Status != StatusError || resp.Error != want || resp.Replayed {
		t.Errorf("report for shard 0's id %d: %+v, want error %q", id, resp, want)
	}
}
