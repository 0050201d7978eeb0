package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the in-memory trace; once full, later spans are
// counted as dropped and the measurement goes on.
const maxSpans = 1 << 17

// span is one timed interval at a layer boundary.  Spans of one request
// (one client cycle, one simulation round) share Req; Parent is the ID
// of the span that caused this one, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// add records a span and returns its ID (0 when the trace is full).
func (t *tracer) add(name string, parent int32, req int64, start, end time.Time) int32 {
	return t.addNS(name, parent, req, int64(start.Sub(t.t0)), int64(end.Sub(t.t0)))
}

func (t *tracer) addNS(name string, parent int32, req int64, start, end int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// shadow times fn as a child of parent and lays the child inside the
// parent after its earlier children: a shadow call replays the request
// after the window, so its duration is measured and its position is not.
func (t *tracer) shadow(name string, parent *span, offset *int64, fn func()) time.Duration {
	began := time.Now()
	fn()
	d := time.Since(began)
	t.addNS(name, parent.ID, parent.Req, parent.Start+*offset, parent.Start+*offset+int64(d))
	*offset += int64(d)
	return d
}

// layerTime is one span name's totals; self excludes child spans.
type layerTime struct {
	Count   int64   `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

func (t *tracer) summary() map[string]*layerTime {
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.End - s.Start
	}
	sum := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := sum[s.Name]
		if lt == nil {
			lt = &layerTime{}
			sum[s.Name] = lt
		}
		lt.Count++
		lt.TotalUS += float64(s.End-s.Start) / 1e3
		lt.SelfUS += float64(s.End-s.Start-children[s.ID]) / 1e3
	}
	return sum
}

func (t *tracer) write(workload string, env map[string]any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string]any{
		"workload": workload,
		"env":      env,
		"dropped":  t.dropped,
		"summary":  t.summary(),
		"spans":    t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
