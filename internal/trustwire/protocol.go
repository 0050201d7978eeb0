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
// "delta" of the entries written since that version when it is behind,
// and a full "snapshot" when it polls cold (version 0).  Both read one
// replica of the table (grid.TableReplica.Since) and list entries in (cd,
// rd, activity) order.  Deltas are pure overlays because the table never
// deletes entries; trust changes are rare ("trust is a slow varying
// attribute"), so deltas are typically a single entry.  A replica is an
// immutable grid.TableReplica, each response overlaid on the last.
package trustwire

import (
	"fmt"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

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
	// Entries is the full table when Status is "snapshot", the entries
	// written since have_version when it is "delta".
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

// wireEntries puts table entries on the wire, in their order.
func wireEntries(entries []grid.TableEntry) []Entry {
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{CD: int(e.CD), RD: int(e.RD), Activity: int(e.Activity), Level: e.Level.String()}
	}
	return out
}

// applyEntries parses wire entries and overlays them on base (nil: an
// empty table), returning the replica at version; Overlay checks the ids.
// base never changes.
func applyEntries(base *grid.TableReplica, entries []Entry, version uint64) (*grid.TableReplica, error) {
	es := make([]grid.TableEntry, len(entries))
	for i, e := range entries {
		tl, err := grid.ParseLevel(e.Level)
		if err != nil {
			return nil, fmt.Errorf("trustwire: entry (%d,%d,%d): %w", e.CD, e.RD, e.Activity, err)
		}
		es[i] = grid.TableEntry{CD: grid.DomainID(e.CD), RD: grid.DomainID(e.RD), Activity: grid.Activity(e.Activity), Level: tl}
	}
	rep, err := base.Overlay(es, version)
	if err != nil {
		return nil, fmt.Errorf("trustwire: %w", err)
	}
	return rep, nil
}
