package rmswire

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/core"
	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
	"gridtrust/internal/trust"
)

// newDaemon builds a two-domain TRMS, wraps it in a server on an ephemeral
// port and returns a connected client.
func newDaemon(t *testing.T) (*core.TRMS, *Server, *Client) {
	t.Helper()
	mkRD := func(id grid.DomainID) *grid.ResourceDomain {
		return &grid.ResourceDomain{
			ID: id, Owner: "org",
			Supported: map[grid.Activity]grid.TrustLevel{
				grid.ActCompute: grid.LevelC,
				grid.ActStorage: grid.LevelC,
			},
			RTL:      grid.LevelA,
			Machines: []*grid.Machine{{ID: grid.MachineID(id), RD: id}},
		}
	}
	top, err := grid.NewTopology(
		&grid.GridDomain{
			ID: 0, RD: mkRD(0),
			CD: &grid.ClientDomain{
				ID:      0,
				Sought:  map[grid.Activity]grid.TrustLevel{grid.ActCompute: grid.LevelC},
				RTL:     grid.LevelA,
				Clients: []*grid.Client{{ID: 0, CD: 0}},
			},
		},
		&grid.GridDomain{ID: 1, RD: mkRD(1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	trms, err := core.New(core.Config{
		Topology: top,
		Trust:    trust.Config{Alpha: 1, Beta: 0, Smoothing: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		trms.Close()
	})
	return trms, srv, client
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Fatal("accepted nil TRMS")
	}
}

func TestSubmitReportStats(t *testing.T) {
	_, _, client := newDaemon(t)
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelE, []float64{100, 110}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID == 0 || p.Machine != 0 || p.TC != 2 /* ETS(E,C) */ {
		t.Fatalf("placement %+v", p)
	}
	if p.ECC != p.EEC+p.ESC {
		t.Fatalf("ECC arithmetic wrong: %+v", p)
	}
	if err := client.Report(p.ID, 6, 1); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != 1 || st.AgentsProcessed != 1 || st.OpenPlacements != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.TableEntries == 0 || st.TableVersion == 0 {
		t.Fatalf("table stats empty: %+v", st)
	}
}

func TestTrustFeedbackAcrossWire(t *testing.T) {
	_, _, client := newDaemon(t)
	acts := []grid.Activity{grid.ActCompute}
	eec := []float64{100, 100}
	p, err := client.Submit(0, acts, grid.LevelE, eec, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(p.ID, 6, 1); err != nil {
		t.Fatal(err)
	}
	// The served RD's trust rose to E; a later submit must prefer it
	// with TC 0.
	p2, err := client.Submit(0, acts, grid.LevelE, eec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p2.RD != p.RD || p2.TC != 0 {
		t.Fatalf("trust feedback not visible over the wire: %+v", p2)
	}
}

func TestReportUnknownAndDoubleReport(t *testing.T) {
	trms, _, client := newDaemon(t)
	if err := client.Report(999, 5, 0); err == nil {
		t.Fatal("unknown placement accepted")
	}
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(p.ID, 5, 1); err != nil {
		t.Fatal(err)
	}
	// The duplicate is acknowledged as a typed replay and applied to
	// nothing: the first delivery landed, only its ack can have been lost.
	resp, _, err := client.RoundTrip(Request{Op: OpReport, PlacementID: p.ID, Outcome: 5, Now: 2})
	if err != nil || !resp.Replayed {
		t.Fatalf("double report: replayed=%v err=%v, want an ok reply marked replayed", resp.Replayed, err)
	}
	if processed, _, _ := trms.AgentStats(); processed != 1 {
		t.Fatalf("agent processed %d transactions for one placement reported twice", processed)
	}
	m, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if ok, replays := m.Counters[MetricReportOK], m.Counters[MetricReportReplays]; ok != 1 || replays != 1 {
		t.Fatalf("report_ok_total=%d report_replays_total=%d, want 1 and 1", ok, replays)
	}
	// An id this daemon never minted is still an error, not a replay.
	if err := client.Report(p.ID+1, 5, 3); err == nil {
		t.Fatal("report for an id above the last minted one accepted")
	}
}

func TestReportBadOutcomeIsRetriable(t *testing.T) {
	_, _, client := newDaemon(t)
	p, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Report(p.ID, 99, 1); err == nil {
		t.Fatal("off-scale outcome accepted")
	}
	// The placement must still be reportable after the failed attempt.
	if err := client.Report(p.ID, 4, 2); err != nil {
		t.Fatalf("retry after bad outcome failed: %v", err)
	}
}

func TestSubmitValidationOverWire(t *testing.T) {
	_, _, client := newDaemon(t)
	if _, err := client.Submit(0, nil, grid.LevelA, []float64{1, 2}, 0); err == nil {
		t.Error("empty activities accepted")
	}
	if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelNone, []float64{1, 2}, 0); err == nil {
		t.Error("invalid RTL accepted")
	}
	if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1}, 0); err == nil {
		t.Error("short EEC accepted")
	}
	if _, err := client.Submit(99, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1, 2}, 0); err == nil {
		t.Error("unknown client accepted")
	}
	// The connection must survive all those errors.
	if _, err := client.Submit(0, []grid.Activity{grid.ActCompute}, grid.LevelA, []float64{1, 2}, 0); err != nil {
		t.Fatalf("connection broken after errors: %v", err)
	}
}

func TestUnknownOp(t *testing.T) {
	_, srv, _ := newDaemon(t)
	_ = srv
	resp := srv.respond(Request{Op: "detonate"})
	if resp.Status != StatusError || !strings.Contains(resp.Error, "detonate") {
		t.Fatalf("response %+v", resp)
	}
}

func TestConcurrentClientsSharedServer(t *testing.T) {
	_, srv, first := newDaemon(t)
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < 25; i++ {
				p, err := client.Submit(0, []grid.Activity{grid.ActCompute},
					grid.LevelC, []float64{5, 7}, float64(i))
				if err != nil {
					t.Error(err)
					return
				}
				if err := client.Report(p.ID, 4, float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st, err := first.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != 100 || st.OpenPlacements != 0 {
		t.Fatalf("stats after concurrent load: %+v", st)
	}
}

func TestMalformedFrame(t *testing.T) {
	_, srv, _ := newDaemon(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("gibberish\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := frame.Read(bufio.NewReader(conn), responseCodec.Frame(&resp)); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("response %+v", resp)
	}
}

func TestOversizeFrameAnsweredWithError(t *testing.T) {
	_, srv, _ := newDaemon(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Concurrently: the server starts reading while we are still
	// flooding, so neither side blocks on a full socket buffer.
	go func() {
		_, _ = conn.Write(bytes.Repeat([]byte{'z'}, MaxFrameBytes+2))
		_, _ = conn.Write([]byte{'\n'})
	}()
	var resp Response
	if err := frame.Read(bufio.NewReader(conn), responseCodec.Frame(&resp)); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Error, "MaxFrameBytes") {
		t.Fatalf("response %+v", resp)
	}
}

func TestIdleConnectionIsReaped(t *testing.T) {
	trms, _, _ := newDaemon(t)
	srv, err := NewServer(trms)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = 250 * time.Millisecond
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Activity within the timeout refreshes the deadline.
	for i := 0; i < 3; i++ {
		time.Sleep(100 * time.Millisecond)
		if _, err := client.Stats(); err != nil {
			t.Fatalf("live connection reaped after %d requests: %v", i, err)
		}
	}
	// Going idle past the timeout gets the connection closed: the next
	// request fails instead of hanging.
	time.Sleep(time.Second)
	if _, err := client.Stats(); err == nil {
		t.Fatal("idle connection survived past the timeout")
	}
}

// severConns closes every connection the server holds, behind its
// clients' backs: their next op finds a dead stream.
func severConns(srv *Server) {
	srv.connMu.Lock()
	defer srv.connMu.Unlock()
	for c := range srv.conns {
		c.Close()
	}
}

func TestIdleTimeoutResolution(t *testing.T) {
	s := &Server{}
	if got := s.idleTimeout(); got != DefaultIdleTimeout {
		t.Fatalf("zero value resolved to %v", got)
	}
	s.IdleTimeout = -1
	if got := s.idleTimeout(); got != 0 {
		t.Fatalf("negative (disabled) resolved to %v", got)
	}
	s.IdleTimeout = time.Second
	if got := s.idleTimeout(); got != time.Second {
		t.Fatalf("explicit value resolved to %v", got)
	}
}

func TestPipeTransport(t *testing.T) {
	trms, srv, _ := newDaemon(t)
	_ = trms
	client, server := net.Pipe()
	go srv.handle(server)
	c := NewClient(frame.Wrap(client))
	defer c.Close()
	p, err := c.Submit(0, []grid.Activity{grid.ActStorage}, grid.LevelB, []float64{3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine != 0 {
		t.Fatalf("pipe placement %+v", p)
	}
}
