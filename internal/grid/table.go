package grid

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// The ids one table holds: client and resource domains 0..TableDomains-1
// and activities 0..TableActivities-1.  The store is dense, so an id is
// the size of what it forces: one entry at the top corner allocates about
// 50 KiB, one full gossip frame about 70 MiB (DESIGN.md §16).  The
// largest ids in use are a dozen domains (gridgen's fleet topologies) and
// activity 71 (a simulator test).
const (
	TableDomains    = 1024
	TableActivities = 128
)

// TrustTable is the trust-level table of Section 3.1: a symmetric
// quantifier TL[i][j][k] for client domain i and resource domain j engaging
// in activity A_k.  "In this study, we maintain a single table in a
// centrally organized RMS.  The table may, however, be replicated at
// different domains for reading purposes."
//
// The table is the writer of one TableReplica at a time: every write
// builds the next replica by Overlay and publishes it atomically, so
// readers take no lock.  Updates are rare relative to reads — "trust is a
// slow varying attribute, therefore, the update overhead associated with
// the trust level table is not significant" — and a reader that wants
// several answers from one table (a decision, a gossip reply, a
// checkpoint) reads them all from the one Replica it loaded.
type TrustTable struct {
	mu  sync.Mutex // serialises writers
	rep atomic.Pointer[TableReplica]
}

// NewTrustTable returns an empty trust-level table.
func NewTrustTable() *TrustTable {
	t := &TrustTable{}
	t.rep.Store(new(TableReplica))
	return t
}

// Replica returns the table as it stands: immutable, and current until
// the next write.
func (t *TrustTable) Replica() *TableReplica { return t.rep.Load() }

// Set records the trust level for (cd, rd, activity) at the next version.
// Only offerable levels A-E may be stored: F exists solely as a
// requirement.
func (t *TrustTable) Set(cd, rd DomainID, act Activity, tl TrustLevel) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.rep.Load()
	next, err := cur.Overlay([]TableEntry{{CD: cd, RD: rd, Activity: act, Level: tl}}, cur.version+1)
	if err == nil {
		t.rep.Store(next)
	}
	return err
}

// Restore replaces the table contents with the given entries at version,
// every entry stamped as written then: a persisted table rebuilt exactly,
// or a whole seed in one write.  On error the table is left unchanged.
func (t *TrustTable) Restore(entries []TableEntry, version uint64) error {
	next, err := (*TableReplica)(nil).Overlay(entries, version)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.Store(next)
	return nil
}

// OTL is Replica().OTL.
func (t *TrustTable) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	return t.Replica().OTL(cd, rd, toa)
}

// TableEntry is one (cd, rd, activity) → level record in exported form,
// used to persist the table, replicate it and rebuild it on recovery.
type TableEntry struct {
	CD       DomainID   `json:"cd"`
	RD       DomainID   `json:"rd"`
	Activity Activity   `json:"activity"`
	Level    TrustLevel `json:"level"`
}

// checkEntry is the one validation of what enters a table: an offerable
// level at ids inside the table's bounds.
func checkEntry(e TableEntry) error {
	switch {
	case !e.Level.Offerable():
		return fmt.Errorf("entry for CD %d / RD %d has non-offerable level %v", e.CD, e.RD, e.Level)
	case uint(e.CD) >= TableDomains || uint(e.RD) >= TableDomains:
		return fmt.Errorf("entry for CD %d / RD %d is outside domain ids 0..%d", e.CD, e.RD, TableDomains-1)
	case uint(e.Activity) >= TableActivities:
		return fmt.Errorf("entry for CD %d / RD %d has activity %d outside 0..%d", e.CD, e.RD, int(e.Activity), TableActivities-1)
	}
	return nil
}

// TableReplica is the table at one version, the "replicated at different
// domains for reading purposes" mechanism of Section 3.1: built by
// Overlay and never changed after, so a reader may keep the one it holds
// for as long as it likes.  The zero TableReplica is an empty table at
// version 0.
type TableReplica struct {
	// rows[cd][rd] is one row of cells indexed by activity, as long as
	// the highest activity written in it.  A replica shares every row it
	// did not write with the replica it was built on.
	rows    [][][]cell
	n       int // cells holding an entry
	version uint64
}

// cell is one (cd, rd, activity) of the table; LevelNone marks no entry.
type cell struct {
	level   TrustLevel
	written uint64 // the version that last wrote the cell
}

// Overlay returns a new replica at version holding r's entries with the
// given ones written over them, each stamped as written at version; a nil
// r starts from an empty table.  Every entry is checked first, and on
// error no replica is returned.  r itself never changes: the new replica
// copies the list of CDs once, each touched CD's row list once and each
// touched row once, each at the size it needs, and shares every other row
// with r.  Entries not in (cd, rd) order are overlaid from a stably
// sorted copy, so a later entry for a cell still wins.
func (r *TableReplica) Overlay(entries []TableEntry, version uint64) (*TableReplica, error) {
	top := DomainID(0)
	for _, e := range entries {
		if err := checkEntry(e); err != nil {
			return nil, fmt.Errorf("grid: %w", err)
		}
		top = max(top, e.CD)
	}
	byRow := func(a, b TableEntry) int {
		return cmp.Or(cmp.Compare(a.CD, b.CD), cmp.Compare(a.RD, b.RD))
	}
	if !slices.IsSortedFunc(entries, byRow) {
		entries = slices.Clone(entries)
		slices.SortStableFunc(entries, byRow)
	}
	next := &TableReplica{version: version}
	if r != nil {
		next.rows, next.n = r.rows, r.n
	}
	if len(entries) == 0 {
		return next, nil
	}
	next.rows = grown(next.rows, int(top)+1)
	for i, e := range entries {
		newCD := i == 0 || e.CD != entries[i-1].CD
		if newCD {
			hi := e.RD
			for _, f := range entries[i:] {
				if f.CD != e.CD {
					break
				}
				hi = max(hi, f.RD)
			}
			next.rows[e.CD] = grown(next.rows[e.CD], int(hi)+1)
		}
		rds := next.rows[e.CD]
		if newCD || e.RD != entries[i-1].RD {
			hi := e.Activity
			for _, f := range entries[i:] {
				if f.CD != e.CD || f.RD != e.RD {
					break
				}
				hi = max(hi, f.Activity)
			}
			rds[e.RD] = grown(rds[e.RD], int(hi)+1)
		}
		row := rds[e.RD]
		if row[e.Activity].level == LevelNone {
			next.n++
		}
		row[e.Activity] = cell{level: e.Level, written: version}
	}
	return next, nil
}

// grown returns a copy of s at a length of at least n.
func grown[T any](s []T, n int) []T {
	out := make([]T, max(n, len(s)))
	copy(out, s)
	return out
}

// row returns the cells of (cd, rd), nil where nothing was written.
func (r *TableReplica) row(cd, rd DomainID) []cell {
	if uint(cd) >= uint(len(r.rows)) || uint(rd) >= uint(len(r.rows[cd])) {
		return nil
	}
	return r.rows[cd][rd]
}

// Get returns the trust level for (cd, rd, activity) and whether an entry
// exists.
func (r *TableReplica) Get(cd, rd DomainID, act Activity) (TrustLevel, bool) {
	if row := r.row(cd, rd); uint(act) < uint(len(row)) && row[act].level != LevelNone {
		return row[act].level, true
	}
	return LevelNone, false
}

// Len returns the number of entries.
func (r *TableReplica) Len() int { return r.n }

// Version returns the version the replica was built at: for a live
// table, its count of Sets since the last Restore plus that Restore's
// version.
func (r *TableReplica) Version() uint64 { return r.version }

// OTL computes the offered trust level for a client of cd engaging in the
// (possibly composed) ToA on a resource of rd: the minimum of the per-
// activity table entries.  "TL_ij^o = min(TL for A_p, TL for A_q, TL for
// A_r)" (Section 3.1).  It returns an error if any activity has no entry,
// which means the pairing is simply not offered.
func (r *TableReplica) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	if len(toa.Activities) == 0 {
		return LevelNone, fmt.Errorf("grid: OTL of an empty ToA")
	}
	row := r.row(cd, rd)
	otl := MaxOfferable + 1 // sentinel above any offerable level
	for _, a := range toa.Activities {
		if uint(a) >= uint(len(row)) || row[a].level == LevelNone {
			return LevelNone, fmt.Errorf("grid: no trust entry for CD %d / RD %d / %v", cd, rd, a)
		}
		otl = minLevel(otl, row[a].level)
	}
	return otl, nil
}

// OTLRow is one row of a scheduling decision's view of the table: what
// one client domain is offered for one ToA across a list of resource
// domains.  The caller sets CD and ToA and sizes OTL to the list; OTLRows
// fills the rest.
type OTLRow struct {
	CD  DomainID
	ToA ToA

	// OTL[i] receives the offered trust level on the i-th resource domain,
	// or LevelNone where that domain does not support the ToA.
	OTL []TrustLevel
	// N counts the cells filled.  A row stops at its first table gap: N is
	// then the index of the resource domain that supports the ToA but has
	// no entry, and Err is the error OTL reports for that pairing.
	N   int
	Err error
}

// OTLRows fills every row against rds.  Nothing is copied, and all the
// rows of one decision — a lone submit or a whole batch — are priced
// against the one replica.
func (r *TableReplica) OTLRows(rds []*ResourceDomain, rows []OTLRow) {
	for i := range rows {
		row := &rows[i]
		row.N, row.Err = 0, nil
		for j, rd := range rds {
			otl := LevelNone
			if rd.Supports(row.ToA) {
				if otl, row.Err = r.OTL(row.CD, rd.ID, row.ToA); row.Err != nil {
					break
				}
			}
			row.OTL[j] = otl
			row.N++
		}
	}
}

// Since returns the entries written after version v in (cd, rd,
// activity) order.  Since(0) is the whole table, never nil, so an empty
// table still persists as [], and holds the entries a Restore at version
// 0 stamped too; a replica at version v > 0 overlays Since(v) to catch
// up, since entries are never deleted (only Restore replaces the
// contents).
func (r *TableReplica) Since(v uint64) []TableEntry {
	var out []TableEntry
	if v == 0 {
		out = make([]TableEntry, 0, r.n)
	}
	for cd, rds := range r.rows {
		for rd, row := range rds {
			for a, c := range row {
				if c.level != LevelNone && (c.written > v || v == 0) {
					out = append(out, TableEntry{CD: DomainID(cd), RD: DomainID(rd), Activity: Activity(a), Level: c.level})
				}
			}
		}
	}
	return out
}
