// Package metrics is the daemon observability substrate: a registry of
// named counters, gauges and latency histograms designed so that the hot
// path — a request handler bumping a counter or recording one latency —
// costs a handful of atomic operations and zero allocations.
//
// The paper evaluates the trust-aware RMS only in simulation; a daemon
// serving real traffic needs the operational view the simulator never
// did: admission sheds, retries observed, WAL sync batching, per-op
// latency percentiles.  Both the load driver (internal/load) and ops
// tooling (gridctl metrics) read the same registry through the daemon's
// {"op":"metrics"} wire op, so a load test's client-side totals can be
// reconciled against exactly the numbers an operator would see.
//
// Concurrency model: registration (Counter/Gauge/Histogram lookup by
// name, CounterFunc/GaugeFunc) takes the registry's lock and may
// allocate — do it once at startup and keep the pointer.  The registry
// keeps one name-ordered list per kind, so a lookup is a binary search
// and a scrape walks the lists in the order the wire writes them.  The
// returned handles are lock-free: Counter.Add, Gauge.Set and
// Histogram.Observe are single atomic operations (Observe is three) safe
// from any goroutine.  A func metric is a value the registry reads at
// scrape time instead of one the hot path keeps current (a connection
// count, a table size).  A scrape calls it under the registry's read
// lock, so it must not register into the same registry, and scrapes on
// several goroutines call it at once; PerScrape lets several funcs share
// one reading.  A scrape — Snapshot for in-process callers, AppendJSON
// for the wire — does not stop writers; under concurrent writes it is
// per-word atomic but not globally consistent (a histogram's count may
// transiently disagree with the sum of its buckets by in-flight
// observations).  Scrape a quiescent daemon when exact reconciliation
// matters.
package metrics

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"gridtrust/internal/frame"
)

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value (queue depth, in-flight count).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry holds named metrics.  Lookups are get-or-create and
// idempotent: the same name always returns the same handle, so
// independent subsystems can share a metric by naming convention.  A
// name registered as a func is that func's alone.
type Registry struct {
	// mu guards the lists: registration inserts under it, and a scrape,
	// func metrics included, reads under its read lock.
	mu       sync.RWMutex
	counters []entry[Counter, uint64]
	gauges   []entry[Gauge, int64]
	hists    []entry[Histogram, *HistSnapshot]

	seq atomic.Uint64
}

// entry is one registered metric: its name, the key a scrape writes for
// it, its handle (nil for a func metric) and how a scrape reads it.
type entry[H, V any] struct {
	name string
	key  string // the name as json.Marshal quotes it, and a colon
	h    *H
	read func() V
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	return register(r, &r.counters, name, (*Counter).Load, nil)
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, &r.gauges, name, (*Gauge).Load, nil)
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	return register(r, &r.hists, name, (*Histogram).Snapshot, nil)
}

// CounterFunc registers name as a counter whose value read returns at
// each scrape.  It panics if name is already a counter.
func (r *Registry) CounterFunc(name string, read func() uint64) {
	register(r, &r.counters, name, nil, read)
}

// GaugeFunc registers name as a gauge whose value read returns at each
// scrape.  It panics if name is already a gauge.
func (r *Registry) GaugeFunc(name string, read func() int64) {
	register(r, &r.gauges, name, nil, read)
}

// register looks name up in list by binary search and returns its
// handle, inserting on first use a handle that load reads or, with read
// set, a func metric.  A func metric's name is its own.
func register[H, V any](r *Registry, list *[]entry[H, V], name string, load func(*H) V, read func() V) *H {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearchFunc(*list, name, func(e entry[H, V], name string) int { return strings.Compare(e.name, name) })
	if found {
		if h := (*list)[i].h; h != nil && read == nil {
			return h
		}
		panic("metrics: a func metric cannot share the name " + name)
	}
	var h *H
	if read == nil {
		h = new(H)
		read = func() V { return load(h) }
	}
	*list = slices.Insert(*list, i, entry[H, V]{name, jsonKey(name), h, read})
	return h
}

func jsonKey(name string) string {
	var buf [64]byte
	return string(append(frame.AppendString(buf[:0], name), ':'))
}

// PerScrape returns a read that calls read once per scrape of r and
// hands every later call in the same scrape that result: for func
// metrics that split one reading taken under one lock.  Scrapes that
// overlap may share one reading or take one each.
func PerScrape[T any](r *Registry, read func() T) func() T {
	var (
		mu  sync.Mutex
		seq uint64
		v   T
	)
	return func() T {
		now := r.seq.Load()
		mu.Lock()
		fresh, got := seq == now, v
		mu.Unlock()
		if !fresh {
			got = read()
			mu.Lock()
			seq, v = now, got
			mu.Unlock()
		}
		return got
	}
}

// Seq returns the number of snapshots taken so far without taking one.
// A poller that sees the sequence (or the owning process's uptime) go
// backwards between scrapes knows the process restarted.
func (r *Registry) Seq() uint64 { return r.seq.Load() }

// Snapshot captures every registered metric, func metrics included, and
// increments the scrape sequence number.  The returned structure is
// detached: mutating it does not touch the registry, and it marshals
// directly to JSON for the wire.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := &Snapshot{
		Seq:      r.seq.Add(1),
		Counters: make(map[string]uint64, len(r.counters)),
	}
	for _, e := range r.counters {
		snap.Counters[e.name] = e.read()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for _, e := range r.gauges {
			snap.Gauges[e.name] = e.read()
		}
	}
	if len(r.hists) > 0 {
		snap.Histograms = make(map[string]*HistSnapshot, len(r.hists))
		for _, e := range r.hists {
			snap.Histograms[e.name] = e.read()
		}
	}
	return snap
}

// AppendJSON takes a scrape as Snapshot does and appends it to dst as
// json.Marshal writes that Snapshot, read from the metrics themselves:
// no Snapshot, no maps, no sort, and no allocation once dst has room.
func (r *Registry) AppendJSON(dst []byte) []byte {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dst = strconv.AppendUint(append(dst, `{"seq":`...), r.seq.Add(1), 10)
	dst = appendObject(dst, `,"counters":`, r.counters, true, func(dst []byte, e *entry[Counter, uint64]) []byte {
		return strconv.AppendUint(dst, e.read(), 10)
	})
	dst = appendObject(dst, `,"gauges":`, r.gauges, false, func(dst []byte, e *entry[Gauge, int64]) []byte {
		return strconv.AppendInt(dst, e.read(), 10)
	})
	dst = appendObject(dst, `,"histograms":`, r.hists, false, func(dst []byte, e *entry[Histogram, *HistSnapshot]) []byte {
		return e.h.appendJSON(dst)
	})
	return append(dst, '}')
}

// appendObject appends key and list as a JSON object of its names, as
// json.Marshal writes a map, put writing each value; an empty list is
// left out unless always.
func appendObject[H, V any](dst []byte, key string, list []entry[H, V], always bool, put func([]byte, *entry[H, V]) []byte) []byte {
	if len(list) == 0 && !always {
		return dst
	}
	dst = append(append(dst, key...), '{')
	for i := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = put(append(dst, list[i].key...), &list[i])
	}
	return append(dst, '}')
}

// Snapshot is a point-in-time copy of a registry, the payload of the
// daemon's metrics wire op.
type Snapshot struct {
	// Seq is the 1-based scrape sequence number; it resets to 1 when the
	// owning process restarts.
	Seq        uint64                   `json:"seq"`
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]*HistSnapshot `json:"histograms,omitempty"`
}

// CounterNames returns the counter names in sorted order, for stable
// text rendering.
func (s *Snapshot) CounterNames() []string { return sortedKeys(s.Counters) }

// GaugeNames returns the gauge names in sorted order.
func (s *Snapshot) GaugeNames() []string { return sortedKeys(s.Gauges) }

// HistogramNames returns the histogram names in sorted order.
func (s *Snapshot) HistogramNames() []string { return sortedKeys(s.Histograms) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
