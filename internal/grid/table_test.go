package grid

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTrustTableSetGet(t *testing.T) {
	tt := NewTrustTable()
	if _, ok := tt.Get(0, 1, ActCompute); ok {
		t.Fatal("empty table returned an entry")
	}
	if err := tt.Set(0, 1, ActCompute, LevelC); err != nil {
		t.Fatal(err)
	}
	got, ok := tt.Get(0, 1, ActCompute)
	if !ok || got != LevelC {
		t.Fatalf("Get = %v/%v, want C/true", got, ok)
	}
	// Distinct keys are independent.
	if _, ok := tt.Get(1, 0, ActCompute); ok {
		t.Fatal("table is not keyed by (cd, rd) order")
	}
	if _, ok := tt.Get(0, 1, ActStorage); ok {
		t.Fatal("table is not keyed by activity")
	}
}

func TestTrustTableRejectsBadEntries(t *testing.T) {
	tt := NewTrustTable()
	if err := tt.Set(0, 1, ActCompute, LevelF); err == nil {
		t.Error("table accepted OTL=F (F is requirable only)")
	}
	if err := tt.Set(0, 1, ActCompute, LevelNone); err == nil {
		t.Error("table accepted LevelNone")
	}
	if err := tt.Set(0, 1, Activity(-1), LevelB); err == nil {
		t.Error("table accepted a negative activity")
	}
	if tt.Len() != 0 {
		t.Error("rejected entries were stored")
	}
}

func TestTrustTableVersion(t *testing.T) {
	tt := NewTrustTable()
	v0 := tt.Version()
	if err := tt.Set(0, 1, ActCompute, LevelB); err != nil {
		t.Fatal(err)
	}
	if tt.Version() != v0+1 {
		t.Fatal("version did not advance on Set")
	}
	_ = tt.Set(0, 1, ActCompute, LevelF) // rejected
	if tt.Version() != v0+1 {
		t.Fatal("version advanced on a rejected Set")
	}
}

func TestOTLIsMinOverActivities(t *testing.T) {
	// Section 3.1: TL^o = min(TL for A_p, TL for A_q, TL for A_r).
	tt := NewTrustTable()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tt.Set(3, 7, ActCompute, LevelD))
	must(tt.Set(3, 7, ActStorage, LevelB))
	must(tt.Set(3, 7, ActPrint, LevelE))

	otl, err := tt.OTL(3, 7, MustToA(ActCompute, ActStorage, ActPrint))
	if err != nil {
		t.Fatal(err)
	}
	if otl != LevelB {
		t.Fatalf("OTL = %v, want B (the minimum)", otl)
	}

	// Atomic ToA returns its own level.
	otl, err = tt.OTL(3, 7, MustToA(ActPrint))
	if err != nil || otl != LevelE {
		t.Fatalf("atomic OTL = %v/%v, want E", otl, err)
	}
}

func TestOTLMissingActivity(t *testing.T) {
	tt := NewTrustTable()
	if err := tt.Set(0, 0, ActCompute, LevelC); err != nil {
		t.Fatal(err)
	}
	if _, err := tt.OTL(0, 0, MustToA(ActCompute, ActNetwork)); err == nil {
		t.Fatal("OTL succeeded despite a missing activity entry")
	}
	if _, err := tt.OTL(0, 0, ToA{}); err == nil {
		t.Fatal("OTL accepted an empty ToA")
	}
}

// TestOTLMinProperty checks that OTL equals the minimum entry for random
// activity subsets.
func TestOTLMinProperty(t *testing.T) {
	f := func(levels [5]uint8, mask uint8) bool {
		tt := NewTrustTable()
		min := MaxOfferable + 1
		var acts []Activity
		for i, lv := range levels {
			l := TrustLevel(int(lv)%5) + LevelA
			if err := tt.Set(1, 2, Activity(i), l); err != nil {
				return false
			}
			if mask&(1<<uint(i)) != 0 {
				acts = append(acts, Activity(i))
				if l < min {
					min = l
				}
			}
		}
		if len(acts) == 0 {
			return true
		}
		otl, err := tt.OTL(1, 2, MustToA(acts...))
		return err == nil && otl == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	tt := NewTrustTable()
	if err := tt.Set(0, 1, ActCompute, LevelB); err != nil {
		t.Fatal(err)
	}
	rep := tt.Snapshot()
	if err := tt.Set(0, 1, ActCompute, LevelE); err != nil {
		t.Fatal(err)
	}
	got, ok := rep.Get(0, 1, ActCompute)
	if !ok || got != LevelB {
		t.Fatalf("replica saw later update: %v/%v", got, ok)
	}
	if rep.Version() == tt.Version() {
		t.Fatal("replica version should be stale after update")
	}
	live, _ := tt.Get(0, 1, ActCompute)
	if live != LevelE {
		t.Fatal("live table lost the update")
	}
}

func TestReplicaOTL(t *testing.T) {
	tt := NewTrustTable()
	_ = tt.Set(2, 4, ActCompute, LevelC)
	_ = tt.Set(2, 4, ActStorage, LevelA)
	rep := tt.Snapshot()
	otl, err := rep.OTL(2, 4, MustToA(ActCompute, ActStorage))
	if err != nil || otl != LevelA {
		t.Fatalf("replica OTL = %v/%v, want A", otl, err)
	}
	if _, err := rep.OTL(2, 4, ToA{}); err == nil {
		t.Fatal("replica OTL accepted empty ToA")
	}
	if _, err := rep.OTL(9, 9, MustToA(ActCompute)); err == nil {
		t.Fatal("replica OTL invented a missing entry")
	}
}

// TestTrustTableConcurrency exercises the agents-write / scheduler-reads
// pattern of Figure 1 under the race detector.
func TestTrustTableConcurrency(t *testing.T) {
	tt := NewTrustTable()
	for a := Activity(0); a < NumBuiltinActivities; a++ {
		if err := tt.Set(0, 1, a, LevelC); err != nil {
			t.Fatal(err)
		}
	}
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: four agents cycling levels.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			lvl := LevelA
			for i := 0; i < 500; i++ {
				_ = tt.Set(0, 1, Activity(w%NumBuiltinActivities), lvl)
				lvl++
				if lvl > MaxOfferable {
					lvl = LevelA
				}
			}
		}(w)
	}
	// Readers: schedulers computing OTLs and snapshotting.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			toa := MustToA(ActCompute, ActStorage, ActPrint)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if otl, err := tt.OTL(0, 1, toa); err == nil && !otl.Offerable() {
					t.Error("concurrent OTL out of range")
					return
				}
				_ = tt.Snapshot().Version()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if tt.Version() < 2000 {
		t.Fatalf("expected ~2000 writes, saw version %d", tt.Version())
	}
}

func TestForEachVisitsEveryEntry(t *testing.T) {
	tt := NewTrustTable()
	want := map[[3]int]TrustLevel{}
	for cd := 0; cd < 2; cd++ {
		for rd := 0; rd < 2; rd++ {
			lvl := TrustLevel(cd+rd+1) + 0
			if lvl > MaxOfferable {
				lvl = MaxOfferable
			}
			if err := tt.Set(DomainID(cd), DomainID(rd), ActCompute, lvl); err != nil {
				t.Fatal(err)
			}
			want[[3]int{cd, rd, int(ActCompute)}] = lvl
		}
	}
	got := map[[3]int]TrustLevel{}
	tt.ForEach(func(cd, rd DomainID, act Activity, tl TrustLevel) {
		got[[3]int{int(cd), int(rd), int(act)}] = tl
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %v = %v, want %v", k, got[k], v)
		}
	}
}

func TestEntriesRestoreRoundTrip(t *testing.T) {
	tt := NewTrustTable()
	seed := []struct {
		cd, rd DomainID
		act    Activity
		tl     TrustLevel
	}{
		{1, 2, ActCompute, LevelB},
		{0, 3, ActStorage, LevelD},
		{2, 0, ActCompute, LevelA},
	}
	for _, s := range seed {
		if err := tt.Set(s.cd, s.rd, s.act, s.tl); err != nil {
			t.Fatal(err)
		}
	}
	entries := tt.Entries()
	if len(entries) != len(seed) {
		t.Fatalf("Entries returned %d, want %d", len(entries), len(seed))
	}
	// Deterministic order: (cd, rd, activity) ascending.
	for i := 1; i < len(entries); i++ {
		a, b := entries[i-1], entries[i]
		if a.CD > b.CD || (a.CD == b.CD && a.RD > b.RD) {
			t.Fatalf("entries out of order: %+v before %+v", a, b)
		}
	}

	restored := NewTrustTable()
	if err := restored.Restore(entries, tt.Version()); err != nil {
		t.Fatal(err)
	}
	if restored.Version() != tt.Version() || restored.Len() != tt.Len() {
		t.Fatalf("restored version/len %d/%d, want %d/%d",
			restored.Version(), restored.Len(), tt.Version(), tt.Len())
	}
	for _, s := range seed {
		got, ok := restored.Get(s.cd, s.rd, s.act)
		if !ok || got != s.tl {
			t.Fatalf("restored entry (%d,%d,%v) = %v/%v, want %v", s.cd, s.rd, s.act, got, ok, s.tl)
		}
	}
}

func TestRestoreValidatesAndReplaces(t *testing.T) {
	tt := NewTrustTable()
	if err := tt.Set(9, 9, ActCompute, LevelE); err != nil {
		t.Fatal(err)
	}
	// Invalid entries reject atomically: the table keeps its old contents.
	err := tt.Restore([]TableEntry{{CD: 0, RD: 1, Activity: ActCompute, Level: LevelF}}, 5)
	if err == nil {
		t.Fatal("Restore accepted a non-offerable level")
	}
	err = tt.Restore([]TableEntry{{CD: 0, RD: 1, Activity: Activity(-2), Level: LevelB}}, 5)
	if err == nil {
		t.Fatal("Restore accepted an invalid activity")
	}
	if _, ok := tt.Get(9, 9, ActCompute); !ok {
		t.Fatal("failed Restore clobbered the table")
	}
	// A valid Restore replaces rather than merges.
	if err := tt.Restore([]TableEntry{{CD: 0, RD: 1, Activity: ActCompute, Level: LevelB}}, 7); err != nil {
		t.Fatal(err)
	}
	if _, ok := tt.Get(9, 9, ActCompute); ok {
		t.Fatal("Restore merged instead of replacing")
	}
	if tl, ok := tt.Get(0, 1, ActCompute); !ok || tl != LevelB {
		t.Fatal("Restore dropped the new entry")
	}
	if tt.Version() != 7 {
		t.Fatalf("Restore version = %d, want 7", tt.Version())
	}
}

// rowRDs builds resource domains 0..n-1, each supporting acts.
func rowRDs(n int, acts ...Activity) []*ResourceDomain {
	rds := make([]*ResourceDomain, n)
	for i := range rds {
		rds[i] = &ResourceDomain{ID: DomainID(i), Supported: map[Activity]TrustLevel{}}
		for _, a := range acts {
			rds[i].Supported[a] = LevelC
		}
	}
	return rds
}

func TestOTLRowsMatchesOTL(t *testing.T) {
	tt := NewTrustTable()
	rds := rowRDs(4, ActCompute, ActStorage)
	delete(rds[2].Supported, ActStorage) // RD 2 cannot host the composed ToA
	for cd := DomainID(0); cd < 2; cd++ {
		for _, rd := range rds {
			for a := range rd.Supported {
				lvl := LevelA + TrustLevel((int(cd)+2*int(rd.ID)+int(a))%5)
				if err := tt.Set(cd, rd.ID, a, lvl); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	rows := []OTLRow{
		{CD: 0, ToA: MustToA(ActCompute), OTL: make([]TrustLevel, len(rds))},
		{CD: 1, ToA: MustToA(ActStorage, ActCompute), OTL: make([]TrustLevel, len(rds))},
	}
	tt.OTLRows(rds, rows)
	for r, row := range rows {
		if row.Err != nil || row.N != len(rds) {
			t.Fatalf("row %d: N=%d Err=%v, want a full row", r, row.N, row.Err)
		}
		for i, rd := range rds {
			want := LevelNone
			if rd.Supports(row.ToA) {
				var err error
				if want, err = tt.OTL(row.CD, rd.ID, row.ToA); err != nil {
					t.Fatal(err)
				}
			}
			if row.OTL[i] != want {
				t.Errorf("row %d RD %d: OTL %v, want %v", r, rd.ID, row.OTL[i], want)
			}
		}
	}
	if rows[1].OTL[2] != LevelNone {
		t.Errorf("unsupported RD priced at %v, want none", rows[1].OTL[2])
	}
}

// TestOTLRowsGap: a row stops at the first resource domain that supports
// the ToA but has no entry, with the error OTL gives for that pairing; the
// other rows of the read are unaffected, and a reused row is reset.
func TestOTLRowsGap(t *testing.T) {
	tt := NewTrustTable()
	rds := rowRDs(3, ActCompute, ActPrint)
	for _, rd := range rds {
		_ = tt.Set(0, rd.ID, ActCompute, LevelD)
		if rd.ID != 1 {
			_ = tt.Set(0, rd.ID, ActPrint, LevelB)
		}
	}
	toa := MustToA(ActCompute, ActPrint)
	rows := []OTLRow{
		{CD: 0, ToA: toa, OTL: make([]TrustLevel, 3)},
		{CD: 0, ToA: MustToA(ActCompute), OTL: make([]TrustLevel, 3)},
	}
	tt.OTLRows(rds, rows)
	_, want := tt.OTL(0, 1, toa)
	if want == nil {
		t.Fatal("OTL found the missing entry")
	}
	if rows[0].N != 1 || rows[0].Err == nil || rows[0].Err.Error() != want.Error() {
		t.Fatalf("gap row: N=%d Err=%v, want N=1 and %q", rows[0].N, rows[0].Err, want)
	}
	if rows[0].OTL[0] != LevelB {
		t.Errorf("cell ahead of the gap = %v, want B", rows[0].OTL[0])
	}
	if rows[1].N != 3 || rows[1].Err != nil {
		t.Fatalf("row behind a gap row: N=%d Err=%v, want a full row", rows[1].N, rows[1].Err)
	}
	// A gap on an RD that is not asked about is nobody's error.
	tt.OTLRows([]*ResourceDomain{rds[0], rds[2]}, rows[:1])
	if rows[0].N != 2 || rows[0].Err != nil {
		t.Fatalf("reused row: N=%d Err=%v, want the gap forgotten", rows[0].N, rows[0].Err)
	}
}

func TestOTLRowsEmptyToA(t *testing.T) {
	tt := NewTrustTable()
	rows := []OTLRow{{CD: 0, OTL: make([]TrustLevel, 1)}}
	tt.OTLRows(rowRDs(1, ActCompute), rows)
	_, want := tt.OTL(0, 0, ToA{})
	if rows[0].N != 0 || rows[0].Err == nil || rows[0].Err.Error() != want.Error() {
		t.Fatalf("empty ToA: N=%d Err=%v, want %q", rows[0].N, rows[0].Err, want)
	}
	// No resource domains, no cells, no error.
	tt.OTLRows(nil, rows)
	if rows[0].N != 0 || rows[0].Err != nil {
		t.Fatalf("empty RD list: N=%d Err=%v", rows[0].N, rows[0].Err)
	}
}

// TestOTLRowsConcurrentWithWrites: every cell of one read, across all its
// rows, comes from one table version.  The writer swaps the whole table
// between two uniform ones (Restore is atomic), so a read that saw two
// versions shows two levels.  Run under -race.
func TestOTLRowsConcurrentWithWrites(t *testing.T) {
	tt := NewTrustTable()
	rds := rowRDs(8, ActCompute)
	uniform := func(lvl TrustLevel) []TableEntry {
		es := make([]TableEntry, len(rds))
		for i, rd := range rds {
			es[i] = TableEntry{CD: 0, RD: rd.ID, Activity: ActCompute, Level: lvl}
		}
		return es
	}
	low, high := uniform(LevelA), uniform(LevelE)
	if err := tt.Restore(low, 1); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for v := uint64(2); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			es := low
			if v%2 == 0 {
				es = high
			}
			if err := tt.Restore(es, v); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	rows := []OTLRow{
		{CD: 0, ToA: MustToA(ActCompute), OTL: make([]TrustLevel, len(rds))},
		{CD: 0, ToA: MustToA(ActCompute), OTL: make([]TrustLevel, len(rds))},
	}
	for i := 0; i < 2000; i++ {
		tt.OTLRows(rds, rows)
		first := rows[0].OTL[0]
		for _, row := range rows {
			for _, otl := range row.OTL {
				if otl != first {
					t.Fatalf("read %d saw two table versions: %v and %v", i, rows[0].OTL, rows[1].OTL)
				}
			}
		}
	}
	close(stop)
	writer.Wait()
}
