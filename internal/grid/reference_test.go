package grid

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refTable is the map store the dense replica replaced, kept as the
// reference the store is tested against: each entry and the version that
// wrote it in two maps, and Since sorting what it collects.  Its checks
// are its own, written from the bounds rather than through checkEntry.
type refTable struct {
	entries map[refKey]TrustLevel
	written map[refKey]uint64
	version uint64
}

type refKey struct {
	cd, rd DomainID
	act    Activity
}

func newRefTable() *refTable {
	return &refTable{entries: map[refKey]TrustLevel{}, written: map[refKey]uint64{}}
}

// refValid is what a table accepts.
func refValid(e TableEntry) bool {
	return e.Level >= LevelA && e.Level <= LevelE &&
		e.CD >= 0 && e.CD < TableDomains && e.RD >= 0 && e.RD < TableDomains &&
		e.Activity >= 0 && e.Activity < TableActivities
}

func (t *refTable) clone() *refTable {
	c := newRefTable()
	for k, tl := range t.entries {
		c.entries[k], c.written[k] = tl, t.written[k]
	}
	c.version = t.version
	return c
}

// overlay is TableReplica.Overlay: a copy of t with the entries written
// over it at version, or nil if any entry is invalid.
func (t *refTable) overlay(entries []TableEntry, version uint64) *refTable {
	for _, e := range entries {
		if !refValid(e) {
			return nil
		}
	}
	next := t.clone()
	for _, e := range entries {
		k := refKey{e.CD, e.RD, e.Activity}
		next.entries[k], next.written[k] = e.Level, version
	}
	next.version = version
	return next
}

func (t *refTable) Set(cd, rd DomainID, act Activity, tl TrustLevel) error {
	next := t.overlay([]TableEntry{{CD: cd, RD: rd, Activity: act, Level: tl}}, t.version+1)
	if next == nil {
		return fmt.Errorf("invalid entry")
	}
	*t = *next
	return nil
}

func (t *refTable) Restore(entries []TableEntry, version uint64) error {
	next := newRefTable().overlay(entries, version)
	if next == nil {
		return fmt.Errorf("invalid entry")
	}
	*t = *next
	return nil
}

func (t *refTable) Get(cd, rd DomainID, act Activity) (TrustLevel, bool) {
	tl, ok := t.entries[refKey{cd, rd, act}]
	return tl, ok
}

func (t *refTable) Len() int        { return len(t.entries) }
func (t *refTable) Version() uint64 { return t.version }

func (t *refTable) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	if len(toa.Activities) == 0 {
		return LevelNone, fmt.Errorf("grid: OTL of an empty ToA")
	}
	otl := MaxOfferable + 1
	for _, a := range toa.Activities {
		tl, ok := t.entries[refKey{cd, rd, a}]
		if !ok {
			return LevelNone, fmt.Errorf("grid: no trust entry for CD %d / RD %d / %v", cd, rd, a)
		}
		otl = minLevel(otl, tl)
	}
	return otl, nil
}

func (t *refTable) OTLRows(rds []*ResourceDomain, rows []OTLRow) {
	for r := range rows {
		row := &rows[r]
		row.N, row.Err = 0, nil
		for i, rd := range rds {
			otl := LevelNone
			if rd.Supports(row.ToA) {
				if otl, row.Err = t.OTL(row.CD, rd.ID, row.ToA); row.Err != nil {
					break
				}
			}
			row.OTL[i] = otl
			row.N++
		}
	}
}

func (t *refTable) Since(v uint64) []TableEntry {
	var out []TableEntry
	if v == 0 {
		out = make([]TableEntry, 0, len(t.entries))
	}
	for k, w := range t.written {
		if w > v || v == 0 {
			out = append(out, TableEntry{CD: k.cd, RD: k.rd, Activity: k.act, Level: t.entries[k]})
		}
	}
	slices.SortFunc(out, func(a, b TableEntry) int {
		if c := cmp.Compare(a.CD, b.CD); c != 0 {
			return c
		}
		if c := cmp.Compare(a.RD, b.RD); c != 0 {
			return c
		}
		return cmp.Compare(a.Activity, b.Activity)
	})
	return out
}

// Ids the store tests draw and probe: a few small ones, both edges of
// each bound, and ids far past it.
var (
	probeDomains    = []DomainID{-1, 0, 1, 2, 3, TableDomains - 1, TableDomains, 1 << 31}
	probeActivities = []Activity{-1, 0, 1, 2, 4, 71, TableActivities - 1, TableActivities, 1 << 20}
	probeToAs       = []ToA{{}, MustToA(ActCompute), MustToA(ActStorage, ActCompute), MustToA(ActNetwork, 71, TableActivities-1),
		{Activities: []Activity{ActPrint, -1}}, {Activities: []Activity{TableActivities}}}
)

// storeRun drives a TrustTable and its replicas beside the reference from
// a stream of choices, next(n) picking one of n.
type storeRun struct {
	t    *testing.T
	next func(n int) int
	tt   *TrustTable
	ref  *refTable
	seen []uint64 // every version a replica has held
	// kept are replicas built earlier with the reference state they held;
	// each must still read the same after every later step.
	kept []keptReplica
}

type keptReplica struct {
	rep *TableReplica
	ref *refTable
}

func newStoreRun(t *testing.T, next func(n int) int) *storeRun {
	return &storeRun{t: t, next: next, tt: NewTrustTable(), ref: newRefTable(), seen: []uint64{0}}
}

// entry draws an entry: mostly small ids and offerable levels, sometimes
// an edge of a bound, sometimes invalid.
func (s *storeRun) entry() TableEntry {
	id := func() DomainID {
		if s.next(4) == 0 {
			return probeDomains[s.next(len(probeDomains))]
		}
		return DomainID(s.next(4))
	}
	act := Activity(s.next(int(NumBuiltinActivities)))
	if s.next(4) == 0 {
		act = probeActivities[s.next(len(probeActivities))]
	}
	lvl := LevelA + TrustLevel(s.next(5))
	if s.next(10) == 0 {
		lvl = []TrustLevel{LevelNone, LevelF, 7, -1}[s.next(4)]
	}
	return TableEntry{CD: id(), RD: id(), Activity: act, Level: lvl}
}

// entries draws a list in (cd, rd, activity) order, shuffled, or with
// repeated cells.
func (s *storeRun) entries() []TableEntry {
	es := make([]TableEntry, s.next(9))
	for i := range es {
		es[i] = s.entry()
	}
	switch s.next(3) {
	case 0:
		slices.SortFunc(es, func(a, b TableEntry) int {
			return cmp.Or(cmp.Compare(a.CD, b.CD), cmp.Compare(a.RD, b.RD), cmp.Compare(a.Activity, b.Activity))
		})
	case 1:
		for i := 1; i < len(es); i += 2 {
			es[i].CD, es[i].RD, es[i].Activity = es[i-1].CD, es[i-1].RD, es[i-1].Activity
		}
	}
	return es
}

func (s *storeRun) version() uint64 {
	return []uint64{0, 1, s.ref.version, s.ref.version + 1, s.ref.version + 7}[s.next(5)]
}

// step applies one random operation to the store and the reference and
// compares every replica the run holds.
func (s *storeRun) step() {
	s.t.Helper()
	switch s.next(3) {
	case 0:
		e := s.entry()
		err, want := s.tt.Set(e.CD, e.RD, e.Activity, e.Level), s.ref.Set(e.CD, e.RD, e.Activity, e.Level)
		if (err == nil) != (want == nil) {
			s.t.Fatalf("Set(%+v) = %v, reference %v", e, err, want)
		}
	case 1:
		es, v := s.entries(), s.version()
		err, want := s.tt.Restore(es, v), s.ref.Restore(es, v)
		if (err == nil) != (want == nil) {
			s.t.Fatalf("Restore(%+v, %d) = %v, reference %v", es, v, err, want)
		}
	case 2:
		base, es, v := s.tt.Replica(), s.entries(), s.version()
		if len(s.kept) > 0 && s.next(2) == 0 {
			base = s.kept[s.next(len(s.kept))].rep // overlay an earlier replica
		}
		baseRef := s.refOf(base)
		rep, err := base.Overlay(es, v)
		want := baseRef.overlay(es, v)
		if (err == nil) != (want != nil) || (err == nil) != (rep != nil) {
			s.t.Fatalf("Overlay(%+v, %d) = %v, %v; reference accepts: %v", es, v, rep, err, want != nil)
		}
		if rep != nil {
			s.keep(rep, want)
			s.compare(rep, want)
		}
	}
	s.keep(s.tt.Replica(), s.ref.clone())
	s.compare(s.tt.Replica(), s.ref)
	for _, k := range s.kept {
		s.compareEntries(k.rep, k.ref)
	}
}

// refOf returns the reference state of a replica the run holds.
func (s *storeRun) refOf(rep *TableReplica) *refTable {
	for _, k := range s.kept {
		if k.rep == rep {
			return k.ref
		}
	}
	return s.ref.clone() // the table's current replica
}

// keep holds a replica, its reference, and its version, for the eight
// most recent replicas.
func (s *storeRun) keep(rep *TableReplica, ref *refTable) {
	if len(s.kept) > 0 && s.kept[len(s.kept)-1].rep == rep {
		return
	}
	s.kept = append(s.kept, keptReplica{rep, ref})
	if len(s.kept) > 8 {
		s.kept = s.kept[1:]
	}
	if !slices.Contains(s.seen, rep.Version()) {
		s.seen = append(s.seen, rep.Version())
	}
}

// compareEntries checks what rep holds against ref: its size, its
// version and Since at every version seen, which lists every entry with
// its write stamp.
func (s *storeRun) compareEntries(rep *TableReplica, ref *refTable) {
	s.t.Helper()
	if rep.Len() != ref.Len() || rep.Version() != ref.Version() {
		s.t.Fatalf("replica holds %d entries at %d, reference %d at %d", rep.Len(), rep.Version(), ref.Len(), ref.Version())
	}
	for _, v := range s.seen {
		if got, want := rep.Since(v), ref.Since(v); !reflect.DeepEqual(got, want) {
			s.t.Fatalf("Since(%d) = %+v, reference %+v", v, got, want)
		}
	}
}

// compare checks every read of rep against ref.
func (s *storeRun) compare(rep *TableReplica, ref *refTable) {
	s.t.Helper()
	s.compareEntries(rep, ref)
	var rds []*ResourceDomain
	for _, cd := range probeDomains {
		for _, rd := range probeDomains {
			for _, a := range probeActivities {
				tl, ok := rep.Get(cd, rd, a)
				if wtl, wok := ref.Get(cd, rd, a); tl != wtl || ok != wok {
					s.t.Fatalf("Get(%d, %d, %d) = %v, %v; reference %v, %v", cd, rd, a, tl, ok, wtl, wok)
				}
			}
			for _, toa := range probeToAs {
				otl, err := rep.OTL(cd, rd, toa)
				wotl, werr := ref.OTL(cd, rd, toa)
				if otl != wotl || fmt.Sprint(err) != fmt.Sprint(werr) {
					s.t.Fatalf("OTL(%d, %d, %v) = %v, %v; reference %v, %v", cd, rd, toa, otl, err, wotl, werr)
				}
			}
		}
		supported := map[Activity]TrustLevel{}
		for i, a := range probeActivities {
			if (i+len(rds))%4 != 0 { // each RD lacks a different quarter
				supported[a] = LevelC
			}
		}
		rds = append(rds, &ResourceDomain{ID: cd, Supported: supported})
	}
	for _, toa := range probeToAs {
		var rows, want []OTLRow
		for _, cd := range probeDomains {
			rows = append(rows, OTLRow{CD: cd, ToA: toa, OTL: make([]TrustLevel, len(rds))})
			want = append(want, OTLRow{CD: cd, ToA: toa, OTL: make([]TrustLevel, len(rds))})
		}
		rep.OTLRows(rds, rows)
		ref.OTLRows(rds, want)
		for i := range rows {
			if rows[i].N != want[i].N || fmt.Sprint(rows[i].Err) != fmt.Sprint(want[i].Err) || !slices.Equal(rows[i].OTL, want[i].OTL) {
				s.t.Fatalf("OTLRows row %d of %v = %+v, reference %+v", i, toa, rows[i], want[i])
			}
		}
	}
}

// TestStoreMatchesReference runs random sequences of Set, Restore and
// Overlay against the map store, comparing every read after each step
// and checking that no replica changes once built.
func TestStoreMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		run := newStoreRun(t, rng.Intn)
		for range 60 {
			run.step()
		}
	}
}

// FuzzStoreMatchesReference is TestStoreMatchesReference with the
// choices read from the input, a byte each (0 once it runs out).
func FuzzStoreMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 1, 0, 0, 4, 2, 2, 5, 1, 7, 0, 3})
	f.Add([]byte{2, 6, 0, 0, 1, 1, 0, 2, 3, 4, 0, 0, 3, 3, 2, 1, 0, 0, 0, 5, 2, 2, 8, 1, 1, 3, 0, 9, 1, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func(n int) int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b) % n
		}
		run := newStoreRun(t, next)
		for len(in) > 0 {
			run.step()
		}
	})
}

// TestOverlayCopiesOnlyTouchedRows: a one-entry overlay on a fleet-sized
// table (12 × 12 domains, five activities) allocates the replica, the
// list of CDs, one CD's row list and one row, whatever the table holds.
func TestOverlayCopiesOnlyTouchedRows(t *testing.T) {
	var es []TableEntry
	for cd := DomainID(0); cd < 12; cd++ {
		for rd := DomainID(0); rd < 12; rd++ {
			for a := Activity(0); a < NumBuiltinActivities; a++ {
				es = append(es, TableEntry{CD: cd, RD: rd, Activity: a, Level: LevelC})
			}
		}
	}
	base, err := (*TableReplica)(nil).Overlay(es, 1)
	if err != nil {
		t.Fatal(err)
	}
	one := []TableEntry{{CD: 5, RD: 7, Activity: ActPrint, Level: LevelA}}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := base.Overlay(one, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Fatalf("one-entry overlay made %v allocations, want 4", allocs)
	}
	// Entries that alternate between two rows are overlaid from one
	// sorted copy, not by copying each row again at every switch.
	mixed := []TableEntry{
		{CD: 5, RD: 7, Activity: ActPrint, Level: LevelA},
		{CD: 6, RD: 2, Activity: ActPrint, Level: LevelA},
		{CD: 5, RD: 7, Activity: ActCompute, Level: LevelB},
		{CD: 6, RD: 2, Activity: ActCompute, Level: LevelB},
	}
	sorted := []TableEntry{mixed[0], mixed[2], mixed[1], mixed[3]}
	count := func(es []TableEntry) float64 {
		return testing.AllocsPerRun(100, func() { _, _ = base.Overlay(es, 2) })
	}
	if got, want := count(mixed), count(sorted)+1; got != want {
		t.Fatalf("alternating overlay made %v allocations, want %v", got, want)
	}
	next, _ := base.Overlay(one, 2)
	for cd := range base.rows {
		for rd := range base.rows[cd] {
			shared := &next.rows[cd][rd][0] == &base.rows[cd][rd][0]
			if touched := cd == 5 && rd == 7; shared == touched {
				t.Fatalf("row (%d, %d): shared %v, written %v", cd, rd, shared, touched)
			}
		}
	}
}

// TestTableBoundsIDs: the bounds hold at their edges for every write
// path, and a read at any id is a miss, never a panic.
func TestTableBoundsIDs(t *testing.T) {
	tt := NewTrustTable()
	top := TableEntry{CD: TableDomains - 1, RD: TableDomains - 1, Activity: TableActivities - 1, Level: LevelB}
	if err := tt.Set(top.CD, top.RD, top.Activity, top.Level); err != nil {
		t.Fatalf("Set at the last ids: %v", err)
	}
	for _, bad := range []TableEntry{
		{CD: -1, RD: 0, Activity: 0, Level: LevelB},
		{CD: 0, RD: -1, Activity: 0, Level: LevelB},
		{CD: TableDomains, RD: 0, Activity: 0, Level: LevelB},
		{CD: 0, RD: TableDomains, Activity: 0, Level: LevelB},
		{CD: 0, RD: 0, Activity: TableActivities, Level: LevelB},
		{CD: 1 << 31, RD: 0, Activity: 0, Level: LevelB},
		{CD: 0, RD: 0, Activity: 1 << 20, Level: LevelB},
	} {
		if err := tt.Set(bad.CD, bad.RD, bad.Activity, bad.Level); err == nil {
			t.Errorf("Set accepted %+v", bad)
		}
		if err := tt.Restore([]TableEntry{top, bad}, 9); err == nil {
			t.Errorf("Restore accepted %+v", bad)
		}
		if rep, err := tt.Replica().Overlay([]TableEntry{bad}, 9); err == nil || rep != nil {
			t.Errorf("Overlay accepted %+v", bad)
		}
		if _, ok := tt.Replica().Get(bad.CD, bad.RD, bad.Activity); ok {
			t.Errorf("Get found %+v", bad)
		}
		if _, err := tt.Replica().OTL(bad.CD, bad.RD, ToA{Activities: []Activity{bad.Activity}}); err == nil {
			t.Errorf("OTL priced %+v", bad)
		}
	}
	if rep := tt.Replica(); rep.Len() != 1 || rep.Version() != 1 {
		t.Fatalf("refused writes changed the table: %d entries at %d", rep.Len(), rep.Version())
	}
}
