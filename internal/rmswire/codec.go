package rmswire

// codec.go holds the field table of every frame serve traffic carries
// (internal/frame, codec.go): one row per field in declaration order,
// with the JSON name and omitempty of its struct tag.  The struct tags
// stay the definition — encoding/json reads them whenever a line is not
// in canonical form — and TestCodecMatchesJSON holds the two together.
// CheckpointInfo and FleetInfo ride as cold sub-objects: an operator
// asks for them by hand, no workload does.

import (
	"gridtrust/internal/frame"
	"gridtrust/internal/metrics"
)

var (
	ints   = frame.Slice(frame.Int)
	floats = frame.Slice(frame.Float64)
)

var requestCodec = frame.NewCodec(
	frame.Of("op", frame.String, func(r *Request) *string { return &r.Op }),
	frame.Of("client,omitempty", frame.Int, func(r *Request) *int { return &r.Client }),
	frame.Of("activities,omitempty", ints, func(r *Request) *[]int { return &r.Activities }),
	frame.Of("rtl,omitempty", frame.String, func(r *Request) *string { return &r.RTL }),
	frame.Of("eec,omitempty", floats, func(r *Request) *[]float64 { return &r.EEC }),
	frame.Of("idem_key,omitempty", frame.String, func(r *Request) *string { return &r.IdemKey }),
	frame.Of("budget_ms,omitempty", frame.Int64, func(r *Request) *int64 { return &r.BudgetMS }),
	frame.Of("placement_id,omitempty", frame.Uint64, func(r *Request) *uint64 { return &r.PlacementID }),
	frame.Of("outcome,omitempty", frame.Float64, func(r *Request) *float64 { return &r.Outcome }),
	frame.Of("now,omitempty", frame.Float64, func(r *Request) *float64 { return &r.Now }),
	frame.Of("fwd,omitempty", frame.Bool, func(r *Request) *bool { return &r.Forwarded }),
)

var placementCodec = frame.NewCodec(
	frame.Of("id", frame.Uint64, func(p *PlacementInfo) *uint64 { return &p.ID }),
	frame.Of("machine", frame.Int, func(p *PlacementInfo) *int { return &p.Machine }),
	frame.Of("rd", frame.Int, func(p *PlacementInfo) *int { return &p.RD }),
	frame.Of("cd", frame.Int, func(p *PlacementInfo) *int { return &p.CD }),
	frame.Of("otl", frame.String, func(p *PlacementInfo) *string { return &p.OTL }),
	frame.Of("tc", frame.Int, func(p *PlacementInfo) *int { return &p.TC }),
	frame.Of("eec", frame.Float64, func(p *PlacementInfo) *float64 { return &p.EEC }),
	frame.Of("esc", frame.Float64, func(p *PlacementInfo) *float64 { return &p.ESC }),
	frame.Of("ecc", frame.Float64, func(p *PlacementInfo) *float64 { return &p.ECC }),
	frame.Of("start", frame.Float64, func(p *PlacementInfo) *float64 { return &p.Start }),
	frame.Of("finish", frame.Float64, func(p *PlacementInfo) *float64 { return &p.Finish }),
)

var statsCodec = frame.NewCodec(
	frame.Of("placed", frame.Int, func(s *StatsInfo) *int { return &s.Placed }),
	frame.Of("agents_processed", frame.Int, func(s *StatsInfo) *int { return &s.AgentsProcessed }),
	frame.Of("agents_committed", frame.Int, func(s *StatsInfo) *int { return &s.AgentsCommitted }),
	frame.Of("agents_rejected", frame.Int, func(s *StatsInfo) *int { return &s.AgentsRejected }),
	frame.Of("table_version", frame.Uint64, func(s *StatsInfo) *uint64 { return &s.TableVersion }),
	frame.Of("table_entries", frame.Int, func(s *StatsInfo) *int { return &s.TableEntries }),
	frame.Of("open_placements", frame.Int, func(s *StatsInfo) *int { return &s.OpenPlacements }),
)

var healthCodec = frame.NewCodec(
	frame.Of("status", frame.String, func(h *HealthInfo) *string { return &h.Status }),
	frame.Of("draining,omitempty", frame.Bool, func(h *HealthInfo) *bool { return &h.Draining }),
	frame.Of("degraded,omitempty", frame.Bool, func(h *HealthInfo) *bool { return &h.Degraded }),
	frame.Of("degraded_cause,omitempty", frame.String, func(h *HealthInfo) *string { return &h.DegradedCause }),
	frame.Of("conns", frame.Int, func(h *HealthInfo) *int { return &h.Conns }),
	frame.Of("max_conns,omitempty", frame.Int, func(h *HealthInfo) *int { return &h.MaxConns }),
	frame.Of("in_flight", frame.Int, func(h *HealthInfo) *int { return &h.InFlight }),
	frame.Of("max_in_flight,omitempty", frame.Int, func(h *HealthInfo) *int { return &h.MaxInFlight }),
	frame.Of("open_placements", frame.Int, func(h *HealthInfo) *int { return &h.OpenPlacements }),
	frame.Of("placed", frame.Int, func(h *HealthInfo) *int { return &h.Placed }),
	frame.Of("journal,omitempty", frame.Bool, func(h *HealthInfo) *bool { return &h.Journal }),
	frame.Of("journal_next_seq,omitempty", frame.Uint64, func(h *HealthInfo) *uint64 { return &h.JournalNextSeq }),
	frame.Of("journal_segments,omitempty", frame.Int, func(h *HealthInfo) *int { return &h.JournalSegments }),
	frame.Of("idem_entries,omitempty", frame.Int, func(h *HealthInfo) *int { return &h.IdemEntries }),
	frame.Of("uptime_ms", frame.Int64, func(h *HealthInfo) *int64 { return &h.UptimeMS }),
	frame.Of("start_unix_nanos", frame.Int64, func(h *HealthInfo) *int64 { return &h.StartUnixNanos }),
	frame.Of("metrics_seq", frame.Uint64, func(h *HealthInfo) *uint64 { return &h.MetricsSeq }),
	frame.Of("topology_machines", frame.Int, func(h *HealthInfo) *int { return &h.TopologyMachines }),
	frame.Of("topology_clients", frame.Int, func(h *HealthInfo) *int { return &h.TopologyClients }),
)

var bucketCodec = frame.NewCodec(
	frame.Of("idx", frame.Int, func(b *metrics.Bucket) *int { return &b.Idx }),
	frame.Of("lo", frame.Uint64, func(b *metrics.Bucket) *uint64 { return &b.Lo }),
	frame.Of("n", frame.Uint64, func(b *metrics.Bucket) *uint64 { return &b.Count }),
)

var histCodec = frame.NewCodec(
	frame.Of("count", frame.Uint64, func(h *metrics.HistSnapshot) *uint64 { return &h.Count }),
	frame.Of("sum", frame.Uint64, func(h *metrics.HistSnapshot) *uint64 { return &h.Sum }),
	frame.Of("buckets,omitempty", frame.Slice(bucketCodec.Value()), func(h *metrics.HistSnapshot) *[]metrics.Bucket { return &h.Buckets }),
)

// The first four rows are the embedded metrics.Snapshot's.
var metricsCodec = frame.NewCodec(
	frame.Of("seq", frame.Uint64, func(m *MetricsInfo) *uint64 { return &m.Seq }),
	frame.Of("counters", frame.Map(frame.Uint64), func(m *MetricsInfo) *map[string]uint64 { return &m.Counters }),
	frame.Of("gauges,omitempty", frame.Map(frame.Int64), func(m *MetricsInfo) *map[string]int64 { return &m.Gauges }),
	frame.Of("histograms,omitempty", frame.Map(frame.Ptr(histCodec.Value())), func(m *MetricsInfo) *map[string]*metrics.HistSnapshot { return &m.Histograms }),
	frame.Of("uptime_ms", frame.Int64, func(m *MetricsInfo) *int64 { return &m.UptimeMS }),
	frame.Of("start_unix_nanos", frame.Int64, func(m *MetricsInfo) *int64 { return &m.StartUnixNanos }),
)

var responseCodec = frame.NewCodec(
	frame.Of("status", frame.String, func(r *Response) *string { return &r.Status }),
	frame.Of("error,omitempty", frame.String, func(r *Response) *string { return &r.Error }),
	frame.Of("placement,omitempty", frame.Ptr(placementCodec.Value()), func(r *Response) **PlacementInfo { return &r.Placement }),
	frame.Of("stats,omitempty", frame.Ptr(statsCodec.Value()), func(r *Response) **StatsInfo { return &r.Stats }),
	frame.Of("checkpoint,omitempty", frame.Cold[CheckpointInfo](), func(r *Response) **CheckpointInfo { return &r.Checkpoint }),
	frame.Of("health,omitempty", frame.Ptr(healthCodec.Value()), func(r *Response) **HealthInfo { return &r.Health }),
	frame.Of("metrics,omitempty", frame.Ptr(metricsCodec.Value()), func(r *Response) **MetricsInfo { return &r.Metrics }),
	frame.Of("fleet,omitempty", frame.Cold[FleetInfo](), func(r *Response) **FleetInfo { return &r.Fleet }),
	frame.Of("retry_after_ms,omitempty", frame.Int64, func(r *Response) *int64 { return &r.RetryAfterMS }),
	frame.Of("replayed,omitempty", frame.Bool, func(r *Response) *bool { return &r.Replayed }),
	frame.Of("conn_closing,omitempty", frame.Bool, func(r *Response) *bool { return &r.ConnClosing }),
)

var recordCodec = frame.NewCodec(
	frame.Of("kind", frame.String, func(r *journalRecord) *string { return &r.Kind }),
	frame.Of("id,omitempty", frame.Uint64, func(r *journalRecord) *uint64 { return &r.ID }),
	frame.Of("machine", frame.Int, func(r *journalRecord) *int { return &r.Machine }),
	frame.Of("machine_id,omitempty", frame.Int, func(r *journalRecord) *int { return &r.MachineID }),
	frame.Of("rd", frame.Int, func(r *journalRecord) *int { return &r.RD }),
	frame.Of("cd", frame.Int, func(r *journalRecord) *int { return &r.CD }),
	frame.Of("otl,omitempty", frame.String, func(r *journalRecord) *string { return &r.OTL }),
	frame.Of("tc,omitempty", frame.Int, func(r *journalRecord) *int { return &r.TC }),
	frame.Of("eec,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.EEC }),
	frame.Of("esc,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.ESC }),
	frame.Of("start,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.Start }),
	frame.Of("finish,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.Finish }),
	frame.Of("activities,omitempty", ints, func(r *journalRecord) *[]int { return &r.Activities }),
	frame.Of("idem_key,omitempty", frame.String, func(r *journalRecord) *string { return &r.IdemKey }),
	frame.Of("outcome,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.Outcome }),
	frame.Of("now,omitempty", frame.Float64, func(r *journalRecord) *float64 { return &r.Now }),
)
