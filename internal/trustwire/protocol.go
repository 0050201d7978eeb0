// Package trustwire replicates the central trust-level table to read-only
// replicas at remote Grid domains, implementing the distribution story of
// Section 3.1: "we maintain a single table in a centrally organized RMS.
// The table may, however, be replicated at different domains for reading
// purposes."
//
// The protocol is a minimal request/response exchange over any
// stream-oriented transport (TCP in production, net.Pipe in tests):
// newline-delimited JSON frames.  Replicas poll with their last-seen
// version; the server answers "current" when the replica is up to date, a
// compact "delta" (only changed entries) when the replica's version is
// still inside the server's history window, and a full "snapshot"
// otherwise.  Deltas are pure overlays because the table never deletes
// entries; trust changes are rare ("trust is a slow varying attribute"),
// so deltas are typically a single entry.
package trustwire

import (
	"fmt"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// MaxFrameBytes bounds a single JSON frame; a table of 4 CDs × 4 RDs × 5
// activities is ~80 entries, far below this.  The bound exists so a
// corrupt or malicious peer cannot make a server or a replica allocate
// unboundedly.
const MaxFrameBytes = frame.MaxBytes

// Request is a replica's poll: the highest table version it has applied.
type Request struct {
	// Op is "sync" (the only operation in v1; the field future-proofs
	// the wire format).
	Op string `json:"op"`
	// HaveVersion is the replica's current version, 0 for a cold start.
	HaveVersion uint64 `json:"have_version"`
}

// Entry is one trust-table cell on the wire.
type Entry struct {
	CD       int    `json:"cd"`
	RD       int    `json:"rd"`
	Activity int    `json:"activity"`
	Level    string `json:"level"` // "A".."E"
}

// Response is the server's answer to a sync request.
type Response struct {
	// Status is "snapshot" (full entries follow), "delta" (only entries
	// changed since the replica's version follow), "current" (replica
	// is up to date) or "error".
	Status string `json:"status"`
	// Version is the server's table version at snapshot time.
	Version uint64 `json:"version"`
	// Entries is the full table when Status is "snapshot".
	Entries []Entry `json:"entries,omitempty"`
	// Error carries a message when Status is "error".
	Error string `json:"error,omitempty"`
}

// The frames' field tables (internal/frame, codec.go), row for row the
// struct tags above.
var (
	requestCodec = frame.NewCodec(
		frame.Of("op", frame.String, func(r *Request) *string { return &r.Op }),
		frame.Of("have_version", frame.Uint64, func(r *Request) *uint64 { return &r.HaveVersion }),
	)
	entryCodec = frame.NewCodec(
		frame.Of("cd", frame.Int, func(e *Entry) *int { return &e.CD }),
		frame.Of("rd", frame.Int, func(e *Entry) *int { return &e.RD }),
		frame.Of("activity", frame.Int, func(e *Entry) *int { return &e.Activity }),
		frame.Of("level", frame.String, func(e *Entry) *string { return &e.Level }),
	)
	responseCodec = frame.NewCodec(
		frame.Of("status", frame.String, func(r *Response) *string { return &r.Status }),
		frame.Of("version", frame.Uint64, func(r *Response) *uint64 { return &r.Version }),
		frame.Of("entries,omitempty", frame.Slice(entryCodec.Value()), func(r *Response) *[]Entry { return &r.Entries }),
		frame.Of("error,omitempty", frame.String, func(r *Response) *string { return &r.Error }),
	)
)

// Wire statuses.
const (
	StatusSnapshot = "snapshot"
	StatusDelta    = "delta"
	StatusCurrent  = "current"
	StatusError    = "error"
)

// OpSync is the only v1 operation.
const OpSync = "sync"

// entriesFromTable flattens a table snapshot for the wire.
func entriesFromTable(rep *grid.TableReplica, cds, rds, activities int) []Entry {
	var out []Entry
	for cd := 0; cd < cds; cd++ {
		for rd := 0; rd < rds; rd++ {
			for a := 0; a < activities; a++ {
				tl, ok := rep.Get(grid.DomainID(cd), grid.DomainID(rd), grid.Activity(a))
				if !ok {
					continue
				}
				out = append(out, Entry{CD: cd, RD: rd, Activity: a, Level: tl.String()})
			}
		}
	}
	return out
}

// applyEntries validates and installs wire entries into a table.
func applyEntries(t *grid.TrustTable, entries []Entry) error {
	for _, e := range entries {
		tl, err := grid.ParseLevel(e.Level)
		if err != nil {
			return fmt.Errorf("trustwire: entry (%d,%d,%d): %w", e.CD, e.RD, e.Activity, err)
		}
		if e.CD < 0 || e.RD < 0 || e.Activity < 0 {
			return fmt.Errorf("trustwire: negative identifier in entry (%d,%d,%d)", e.CD, e.RD, e.Activity)
		}
		if err := t.Set(grid.DomainID(e.CD), grid.DomainID(e.RD), grid.Activity(e.Activity), tl); err != nil {
			return fmt.Errorf("trustwire: entry (%d,%d,%d): %w", e.CD, e.RD, e.Activity, err)
		}
	}
	return nil
}
