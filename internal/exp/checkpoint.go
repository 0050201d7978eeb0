package exp

import (
	"encoding/json"
	"fmt"
	"sync"

	"gridtrust/internal/wal"
)

// Checkpoint is a durable cache of completed experiment cells backed by a
// write-ahead log.  Run journals every error-free cell through it as the
// cell drains, and looks cells up before dispatching, so a grid interrupted
// mid-sweep and re-run against the same directory re-executes only the
// cells that never finished.
//
// Cells are keyed by (salt, cell name, master seed, replication count):
// changing any of them is a cache miss, so a checkpoint directory can never
// serve results from a different configuration.  One directory may be
// shared by several grids as long as their salts (or cell names) differ.
type Checkpoint struct {
	mu    sync.Mutex
	log   *wal.Log
	cache map[string]json.RawMessage
}

// checkpointRecord is one journalled cell result, or one part of a cell
// too large for one WAL record: such a cell is Parts consecutive records
// whose Chunks, in Part order, are its encoding.
type checkpointRecord struct {
	Key   string          `json:"key"`
	Reps  json.RawMessage `json:"reps,omitempty"`
	Part  int             `json:"part,omitempty"`
	Parts int             `json:"parts,omitempty"`
	Chunk []byte          `json:"chunk,omitempty"`
}

// partBytes is the most of a cell's encoding one part record carries:
// base64 grows it by a third, which keeps the record under the log's
// default limit.
const partBytes = wal.DefaultMaxRecordBytes / 2

// OpenCheckpoint opens (or creates) a checkpoint directory and replays its
// log, making previously completed cells visible to lookups.  Later records
// win when a key was stored twice; a cell whose parts stop short is not
// restored.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	log, rec, err := wal.Create(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	cache := make(map[string]json.RawMessage)
	if len(rec.Snapshot) > 0 {
		if err := json.Unmarshal(rec.Snapshot, &cache); err != nil {
			log.Close()
			return nil, fmt.Errorf("exp: checkpoint snapshot: %w", err)
		}
	}
	// parts holds a cell's chunks read so far, Part being the next due.
	parts := make(map[string]*checkpointRecord)
	for _, r := range rec.Records {
		var cr checkpointRecord
		if err := json.Unmarshal(r.Payload, &cr); err != nil {
			log.Close()
			return nil, fmt.Errorf("exp: checkpoint record %d: %w", r.Seq, err)
		}
		if cr.Parts == 0 {
			cache[cr.Key] = cr.Reps
			continue
		}
		// Part p continues the cell only after part p-1 of as many.
		have := parts[cr.Key]
		if cr.Part == 0 {
			have = &checkpointRecord{Parts: cr.Parts}
			parts[cr.Key] = have
		}
		if have == nil || have.Parts != cr.Parts || have.Part != cr.Part {
			delete(parts, cr.Key)
			continue
		}
		have.Chunk = append(have.Chunk, cr.Chunk...)
		if have.Part++; have.Part == have.Parts {
			cache[cr.Key] = have.Chunk
			delete(parts, cr.Key)
		}
	}
	return &Checkpoint{log: log, cache: cache}, nil
}

// Len reports the number of cached cells.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cache)
}

// lookup returns the cached encoding for key.
func (c *Checkpoint) lookup(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, ok := c.cache[key]
	return blob, ok
}

// store journals one completed cell and makes it visible to lookups.  The
// append is synced before store returns: a stored cell survives a kill.
// A cell too large for one record is appended as consecutive parts.
func (c *Checkpoint) store(key string, reps json.RawMessage) error {
	payload, err := json.Marshal(checkpointRecord{Key: key, Reps: reps})
	if err != nil {
		return err
	}
	payloads := [][]byte{payload}
	if len(payload) > wal.DefaultMaxRecordBytes {
		n := (len(reps) + partBytes - 1) / partBytes
		payloads = payloads[:0]
		for i := 0; i < n; i++ {
			chunk := reps[i*partBytes : min((i+1)*partBytes, len(reps))]
			p, err := json.Marshal(checkpointRecord{Key: key, Part: i, Parts: n, Chunk: chunk})
			if err != nil {
				return err
			}
			payloads = append(payloads, p)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range payloads {
		if _, err := c.log.Append(p); err != nil {
			return err
		}
	}
	c.cache[key] = reps
	return nil
}

// Compact folds every cached cell into one snapshot and drops the record
// tail, bounding the directory for long-lived sweep series.
func (c *Checkpoint) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	blob, err := json.Marshal(c.cache)
	if err != nil {
		return err
	}
	return c.log.Snapshot(c.log.NextSeq(), blob)
}

// Close releases the underlying log.
func (c *Checkpoint) Close() error { return c.log.Close() }

// cellKey derives the durable identity of one cell's result set.
func cellKey(salt, name string, seed uint64, reps int) string {
	return fmt.Sprintf("%s|%s|seed=%d|reps=%d", salt, name, seed, reps)
}
