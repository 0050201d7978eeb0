package grid

import (
	"fmt"
	"sort"
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
// Whole-table reads (Snapshot, Entries, ForEach) cost time and garbage in
// proportion to the table and belong to replication and persistence.
type TrustTable struct {
	mu      sync.RWMutex
	entries map[tableKey]TrustLevel
	version uint64 // bumped on every successful Set, for replication
}

type tableKey struct {
	cd  DomainID
	rd  DomainID
	act Activity
}

// NewTrustTable returns an empty trust-level table.
func NewTrustTable() *TrustTable {
	return &TrustTable{entries: make(map[tableKey]TrustLevel)}
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
	t.entries[tableKey{cd, rd, act}] = tl
	t.version++
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
// used to persist the table and rebuild it on recovery.
type TableEntry struct {
	CD       DomainID   `json:"cd"`
	RD       DomainID   `json:"rd"`
	Activity Activity   `json:"activity"`
	Level    TrustLevel `json:"level"`
}

// Entries exports every table entry in deterministic (cd, rd, activity)
// order, suitable for serialisation.
func (t *TrustTable) Entries() []TableEntry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TableEntry, 0, len(t.entries))
	for k, tl := range t.entries {
		out = append(out, TableEntry{CD: k.cd, RD: k.rd, Activity: k.act, Level: tl})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.CD != b.CD {
			return a.CD < b.CD
		}
		if a.RD != b.RD {
			return a.RD < b.RD
		}
		return a.Activity < b.Activity
	})
	return out
}

// Restore replaces the table contents with the given entries and sets the
// mutation counter, rebuilding a persisted table exactly.  Entries are
// validated up front; on error the table is left unchanged.
func (t *TrustTable) Restore(entries []TableEntry, version uint64) error {
	fresh := make(map[tableKey]TrustLevel, len(entries))
	for _, e := range entries {
		if !e.Level.Offerable() {
			return fmt.Errorf("grid: restore entry for CD %d / RD %d has non-offerable level %v", e.CD, e.RD, e.Level)
		}
		if !e.Activity.Valid() {
			return fmt.Errorf("grid: restore entry has invalid activity %d", int(e.Activity))
		}
		fresh[tableKey{e.CD, e.RD, e.Activity}] = e.Level
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = fresh
	t.version = version
	return nil
}

// Snapshot returns a read-only copy of the table, the "replicated at
// different domains for reading purposes" mechanism of Section 3.1: what
// trustwire ships to replicas and what an export freezes.  The copy costs
// time and garbage in proportion to the table, so it is not a scheduler's
// read path (that is OTLRows).  The replica is immutable and does not
// track later updates; compare Version with the live table to detect
// staleness.
func (t *TrustTable) Snapshot() *TableReplica {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cp := make(map[tableKey]TrustLevel, len(t.entries))
	for k, v := range t.entries {
		cp[k] = v
	}
	return &TableReplica{entries: cp, version: t.version}
}

// TableReplica is an immutable point-in-time copy of a TrustTable.
type TableReplica struct {
	entries map[tableKey]TrustLevel
	version uint64
}

// Get returns the replicated trust level for (cd, rd, activity).
func (r *TableReplica) Get(cd, rd DomainID, act Activity) (TrustLevel, bool) {
	tl, ok := r.entries[tableKey{cd, rd, act}]
	return tl, ok
}

// Version returns the version of the source table at snapshot time.
func (r *TableReplica) Version() uint64 { return r.version }

// OTL computes the offered trust level from the replica, mirroring
// TrustTable.OTL.
func (r *TableReplica) OTL(cd, rd DomainID, toa ToA) (TrustLevel, error) {
	return offeredLevel(r.entries, cd, rd, toa)
}
