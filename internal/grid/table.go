package grid

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// TrustTable is the trust-level table of Section 3.1: a symmetric
// quantifier TL[i][j][k] for client domain i and resource domain j engaging
// in activity A_k.  "In this study, we maintain a single table in a
// centrally organized RMS.  The table may, however, be replicated at
// different domains for reading purposes."
//
// The table is safe for concurrent use: the CD/RD monitoring agents of
// Figure 1 update entries while the scheduler reads them.  Updates are rare
// relative to reads — "trust is a slow varying attribute, therefore, the
// update overhead associated with the trust level table is not significant"
// — so one RWMutex guards the map, and a read is cheap only if it holds
// that lock for the cells it needs and copies nothing.  The scheduler's
// read is OTLRows: one read lock per decision, a cell per resource domain.
// Whole-table reads (Since, Entries, ForEach) cost time and garbage in
// proportion to the table and belong to replication and persistence.
type TrustTable struct {
	mu      sync.RWMutex
	entries map[tableKey]TrustLevel
	// written holds, per entry, the version that last wrote it, so a
	// replica at version v is sent only what changed since v.  It sits
	// beside entries, which OTLRows reads alone.
	written map[tableKey]uint64
	version uint64 // bumped on every successful Set, for replication
}

type tableKey struct {
	cd  DomainID
	rd  DomainID
	act Activity
}

// NewTrustTable returns an empty trust-level table.
func NewTrustTable() *TrustTable {
	return &TrustTable{entries: make(map[tableKey]TrustLevel), written: make(map[tableKey]uint64)}
}

// Set records the trust level for (cd, rd, activity).  Only offerable
// levels A-E may be stored: F exists solely as a requirement.
func (t *TrustTable) Set(cd, rd DomainID, act Activity, tl TrustLevel) error {
	if !tl.Offerable() {
		return fmt.Errorf("grid: table entries must be offerable levels A-E, got %v", tl)
	}
	if !act.Valid() {
		return fmt.Errorf("grid: invalid activity %d", int(act))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := tableKey{cd, rd, act}
	t.version++
	t.entries[k] = tl
	t.written[k] = t.version
	return nil
}

// Get returns the trust level for (cd, rd, activity) and whether an entry
// exists.
func (t *TrustTable) Get(cd, rd DomainID, act Activity) (TrustLevel, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	tl, ok := t.entries[tableKey{cd, rd, act}]
	return tl, ok
}

// Version returns a monotonically increasing counter of table mutations.
// Read-only replicas use it to decide when to refresh.
func (t *TrustTable) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Len returns the number of entries.
func (t *TrustTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// OTL computes the offered trust level for a client of cd engaging in the
// (possibly composed) ToA on a resource of rd: the minimum of the per-
// activity table entries.  "TL_ij^o = min(TL for A_p, TL for A_q, TL for
// A_r)" (Section 3.1).  It returns an error if any activity has no entry,
// which means the pairing is simply not offered.
func (t *TrustTable) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return offeredLevel(t.entries, cd, rd, toa)
}

// offeredLevel is the OTL rule over a bare entry map; callers hold
// whatever lock guards it.
func offeredLevel(entries map[tableKey]TrustLevel, cd, rd DomainID, toa ToA) (TrustLevel, error) {
	if len(toa.Activities) == 0 {
		return LevelNone, fmt.Errorf("grid: OTL of an empty ToA")
	}
	otl := MaxOfferable + 1 // sentinel above any offerable level
	for _, a := range toa.Activities {
		tl, ok := entries[tableKey{cd, rd, a}]
		if !ok {
			return LevelNone, fmt.Errorf("grid: no trust entry for CD %d / RD %d / %v", cd, rd, a)
		}
		otl = minLevel(otl, tl)
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

// OTLRows fills every row against rds under a single read lock: nothing
// is copied, and all the rows of one decision — a lone submit or a whole
// batch — are priced against the same table.
func (t *TrustTable) OTLRows(rds []*ResourceDomain, rows []OTLRow) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for r := range rows {
		row := &rows[r]
		row.N, row.Err = 0, nil
		for i, rd := range rds {
			otl := LevelNone
			if rd.Supports(row.ToA) {
				if otl, row.Err = offeredLevel(t.entries, row.CD, rd.ID, row.ToA); row.Err != nil {
					break
				}
			}
			row.OTL[i] = otl
			row.N++
		}
	}
}

// ForEach invokes fn for every entry under the read lock.  fn must not
// call back into the table (it would deadlock on the RWMutex).
func (t *TrustTable) ForEach(fn func(cd, rd DomainID, act Activity, tl TrustLevel)) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k, tl := range t.entries {
		fn(k.cd, k.rd, k.act, tl)
	}
}

// TableEntry is one (cd, rd, activity) → level record in exported form,
// used to persist the table, replicate it and rebuild it on recovery.
type TableEntry struct {
	CD       DomainID   `json:"cd"`
	RD       DomainID   `json:"rd"`
	Activity Activity   `json:"activity"`
	Level    TrustLevel `json:"level"`
}

// Since returns the entries written after version v in deterministic
// (cd, rd, activity) order, and the table version they are current at,
// both from one read.  Since(0) is the whole table; a replica at version
// v > 0 overlays Since(v) to catch up, since entries are never deleted
// (only Restore, at startup, replaces the contents).
func (t *TrustTable) Since(v uint64) ([]TableEntry, uint64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []TableEntry
	if v == 0 {
		// The whole table: sized once, and never nil, so an empty table
		// still persists as [].
		out = make([]TableEntry, 0, len(t.entries))
	}
	for k, w := range t.written {
		// Since(0) is every entry, those a Restore at version 0 stamped too.
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
	return out, t.version
}

// Entries exports every table entry in deterministic (cd, rd, activity)
// order, suitable for serialisation: Since(0) without the version.
func (t *TrustTable) Entries() []TableEntry {
	out, _ := t.Since(0)
	return out
}

// checkEntry is the validation every bulk load applies: Restore and
// TableReplica.Overlay accept only what Set would.
func checkEntry(e TableEntry) error {
	if !e.Level.Offerable() {
		return fmt.Errorf("entry for CD %d / RD %d has non-offerable level %v", e.CD, e.RD, e.Level)
	}
	if !e.Activity.Valid() {
		return fmt.Errorf("entry for CD %d / RD %d has invalid activity %d", e.CD, e.RD, int(e.Activity))
	}
	return nil
}

// Restore replaces the table contents with the given entries and sets the
// mutation counter, rebuilding a persisted table exactly; every entry is
// stamped as written at that version.  Entries are validated up front; on
// error the table is left unchanged.
func (t *TrustTable) Restore(entries []TableEntry, version uint64) error {
	fresh := make(map[tableKey]TrustLevel, len(entries))
	written := make(map[tableKey]uint64, len(entries))
	for _, e := range entries {
		if err := checkEntry(e); err != nil {
			return fmt.Errorf("grid: restore %w", err)
		}
		k := tableKey{e.CD, e.RD, e.Activity}
		fresh[k] = e.Level
		written[k] = version
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries, t.written = fresh, written
	t.version = version
	return nil
}

// TableReplica is an immutable copy of a TrustTable at one version, the
// "replicated at different domains for reading purposes" mechanism of
// Section 3.1: a replica is built by Overlay and never changes, so a
// reader may keep the one it holds for as long as it likes.  The zero
// TableReplica is an empty table at version 0.
type TableReplica struct {
	entries map[tableKey]TrustLevel
	version uint64
}

// Overlay returns a new replica at version holding r's entries with the
// given ones written over them; a nil r starts from an empty table.  The
// entries are validated as Restore validates them, and on error no
// replica is returned.  r itself never changes.
func (r *TableReplica) Overlay(entries []TableEntry, version uint64) (*TableReplica, error) {
	var base map[tableKey]TrustLevel
	if r != nil {
		base = r.entries
	}
	next := make(map[tableKey]TrustLevel, len(base)+len(entries))
	for k, tl := range base {
		next[k] = tl
	}
	for _, e := range entries {
		if err := checkEntry(e); err != nil {
			return nil, fmt.Errorf("grid: overlay %w", err)
		}
		next[tableKey{e.CD, e.RD, e.Activity}] = e.Level
	}
	return &TableReplica{entries: next, version: version}, nil
}

// Get returns the replicated trust level for (cd, rd, activity).
func (r *TableReplica) Get(cd, rd DomainID, act Activity) (TrustLevel, bool) {
	tl, ok := r.entries[tableKey{cd, rd, act}]
	return tl, ok
}

// Len returns the number of replicated entries.
func (r *TableReplica) Len() int { return len(r.entries) }

// Version returns the version of the source table the replica holds.
func (r *TableReplica) Version() uint64 { return r.version }

// OTL computes the offered trust level from the replica, mirroring
// TrustTable.OTL.
func (r *TableReplica) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	return offeredLevel(r.entries, cd, rd, toa)
}
