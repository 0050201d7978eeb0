package trustwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// newServedTable spins up a server on an ephemeral TCP port around a
// fresh table and returns both plus the address.
func newServedTable(t *testing.T) (*grid.TrustTable, *Server, string) {
	t.Helper()
	table := grid.NewTrustTable()
	srv, err := NewServer(table, 4, 4, int(grid.NumBuiltinActivities))
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return table, srv, addr.String()
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, 1, 1, 1); err == nil {
		t.Error("accepted nil table")
	}
	if _, err := NewServer(grid.NewTrustTable(), 0, 1, 1); err == nil {
		t.Error("accepted zero dimension")
	}
}

func TestColdSyncTransfersFullTable(t *testing.T) {
	table, srv, addr := newServedTable(t)
	if err := table.Set(1, 2, grid.ActCompute, grid.LevelD); err != nil {
		t.Fatal(err)
	}
	if err := table.Set(0, 0, grid.ActStorage, grid.LevelB); err != nil {
		t.Fatal(err)
	}

	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()

	applied, err := rep.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("cold sync applied nothing")
	}
	local := rep.Table()
	if local.Len() != 2 {
		t.Fatalf("replica has %d entries, want 2", local.Len())
	}
	if tl, ok := local.Get(1, 2, grid.ActCompute); !ok || tl != grid.LevelD {
		t.Fatalf("replica entry (1,2,compute) = %v/%v", tl, ok)
	}
	if rep.Version() != table.Version() {
		t.Fatalf("replica version %d, table version %d", rep.Version(), table.Version())
	}
	if srv.SnapshotsServed() != 1 {
		t.Fatalf("server served %d snapshots, want 1", srv.SnapshotsServed())
	}
}

func TestSyncIsIdempotentWhenCurrent(t *testing.T) {
	table, srv, addr := newServedTable(t)
	if err := table.Set(0, 0, grid.ActCompute, grid.LevelC); err != nil {
		t.Fatal(err)
	}
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		applied, err := rep.Sync()
		if err != nil {
			t.Fatal(err)
		}
		if applied {
			t.Fatal("replica re-applied an unchanged table")
		}
	}
	if srv.SnapshotsServed() != 1 {
		t.Fatalf("server served %d snapshots for an unchanged table", srv.SnapshotsServed())
	}
	if rep.SnapshotsApplied() != 1 {
		t.Fatalf("replica applied %d snapshots", rep.SnapshotsApplied())
	}
}

func TestUpdatePropagates(t *testing.T) {
	table, _, addr := newServedTable(t)
	if err := table.Set(0, 1, grid.ActCompute, grid.LevelB); err != nil {
		t.Fatal(err)
	}
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	// An agent revises the trust level upstream.
	if err := table.Set(0, 1, grid.ActCompute, grid.LevelE); err != nil {
		t.Fatal(err)
	}
	applied, err := rep.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("update did not propagate")
	}
	if tl, _ := rep.Table().Get(0, 1, grid.ActCompute); tl != grid.LevelE {
		t.Fatalf("replica sees %v, want E", tl)
	}
}

func TestReplicaOTLMatchesSource(t *testing.T) {
	table, _, addr := newServedTable(t)
	toa := grid.MustToA(grid.ActCompute, grid.ActStorage, grid.ActPrint)
	_ = table.Set(2, 3, grid.ActCompute, grid.LevelD)
	_ = table.Set(2, 3, grid.ActStorage, grid.LevelB)
	_ = table.Set(2, 3, grid.ActPrint, grid.LevelE)
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	want, err := table.OTL(2, 3, toa)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Table().OTL(2, 3, toa)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("replica OTL %v, source %v", got, want)
	}
}

func TestManyReplicasConcurrently(t *testing.T) {
	table, _, addr := newServedTable(t)
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		if err := table.Set(0, 0, a, grid.LevelC); err != nil {
			t.Fatal(err)
		}
	}
	const replicas = 8
	var wg sync.WaitGroup
	for i := 0; i < replicas; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer rep.Close()
			for k := 0; k < 10; k++ {
				if _, err := rep.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
			if rep.Table().Len() != int(grid.NumBuiltinActivities) {
				t.Errorf("replica has %d entries", rep.Table().Len())
			}
		}()
	}
	wg.Wait()
}

func TestPollLoopPicksUpChanges(t *testing.T) {
	table, _, addr := newServedTable(t)
	_ = table.Set(0, 0, grid.ActCompute, grid.LevelA)
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go rep.Poll(2*time.Millisecond, stop, errs)

	deadline := time.After(2 * time.Second)
	for rep.Version() == 0 {
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("poll loop never synced")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_ = table.Set(0, 0, grid.ActCompute, grid.LevelE)
	for {
		if tl, ok := rep.Table().Get(0, 0, grid.ActCompute); ok && tl == grid.LevelE {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatal("poll loop never picked up the update")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
}

func TestServerRejectsUnknownOp(t *testing.T) {
	_, _, addr := newServedTable(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := frame.Write(conn, requestCodec.Frame(&Request{Op: "explode"})); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := frame.Read(bufio.NewReader(conn), responseCodec.Frame(&resp)); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Error, "explode") {
		t.Fatalf("response %+v", resp)
	}
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	_, _, addr := newServedTable(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := frame.Read(bufio.NewReader(conn), responseCodec.Frame(&resp)); err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusError {
		t.Fatalf("malformed frame got %+v", resp)
	}
}

// TestServerBoundsUnterminatedFrame streams past MaxFrameBytes without ever
// sending a newline: the server must answer once and drop the peer, not
// keep buffering in wait for the end of the line.
func TestServerBoundsUnterminatedFrame(t *testing.T) {
	_, _, addr := newServedTable(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Exactly seventeen of the server's 64 KiB reads.  The limit is
	// crossed on the last one, so the server closes with nothing unread
	// and its reply is not lost to a connection reset.
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		_, _ = conn.Write(bytes.Repeat([]byte{'z'}, MaxFrameBytes+64<<10))
	}()
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	var resp Response
	if err := frame.Read(r, responseCodec.Frame(&resp)); err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if resp.Status != StatusError || !strings.Contains(resp.Error, "MaxFrameBytes") {
		t.Fatalf("response %+v", resp)
	}
	if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
		t.Fatalf("connection left open after the error frame: %v", err)
	}
	<-sent
}

func TestApplyEntriesValidation(t *testing.T) {
	table := grid.NewTrustTable()
	if err := applyEntries(table, []Entry{{CD: 0, RD: 0, Activity: 0, Level: "Z"}}); err == nil {
		t.Error("accepted bad level")
	}
	if err := applyEntries(table, []Entry{{CD: -1, RD: 0, Activity: 0, Level: "A"}}); err == nil {
		t.Error("accepted negative CD")
	}
	if err := applyEntries(table, []Entry{{CD: 0, RD: 0, Activity: 0, Level: "F"}}); err == nil {
		t.Error("accepted non-offerable F entry")
	}
}

func TestReplicaSurvivesServerClose(t *testing.T) {
	table, srv, addr := newServedTable(t)
	_ = table.Set(0, 0, grid.ActCompute, grid.LevelC)
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// The local copy keeps serving reads even though the link is dead.
	if tl, ok := rep.Table().Get(0, 0, grid.ActCompute); !ok || tl != grid.LevelC {
		t.Fatal("replica lost its local copy after server shutdown")
	}
	if _, err := rep.Sync(); err == nil {
		t.Fatal("sync against a closed server should fail")
	}
}

func TestRoundTripOverPipe(t *testing.T) {
	// The protocol works over any net.Conn; net.Pipe keeps this test
	// free of real sockets.
	table := grid.NewTrustTable()
	_ = table.Set(3, 1, grid.ActDisplay, grid.LevelD)
	srv, err := NewServer(table, 4, 4, int(grid.NumBuiltinActivities))
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.handle(server)
	rep := NewReplica(frame.Wrap(client), 0)
	defer rep.Close()
	applied, err := rep.Sync()
	if err != nil || !applied {
		t.Fatalf("pipe sync: %v/%v", applied, err)
	}
	if tl, _ := rep.Table().Get(3, 1, grid.ActDisplay); tl != grid.LevelD {
		t.Fatalf("pipe replica sees %v", tl)
	}
}

func TestDeltaSync(t *testing.T) {
	table, srv, addr := newServedTable(t)
	for a := grid.Activity(0); a < grid.NumBuiltinActivities; a++ {
		if err := table.Set(0, 0, a, grid.LevelC); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	// Cold sync: full snapshot.
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.SnapshotsServed() != 1 || srv.DeltasServed() != 0 {
		t.Fatalf("after cold sync: %d snapshots, %d deltas",
			srv.SnapshotsServed(), srv.DeltasServed())
	}
	// One change; the follow-up sync must travel as a delta.
	if err := table.Set(0, 0, grid.ActCompute, grid.LevelE); err != nil {
		t.Fatal(err)
	}
	applied, err := rep.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !applied {
		t.Fatal("delta not applied")
	}
	if srv.DeltasServed() != 1 {
		t.Fatalf("deltas served = %d, want 1", srv.DeltasServed())
	}
	// The replica's table must hold both the changed and the unchanged
	// entries.
	if tl, _ := rep.Table().Get(0, 0, grid.ActCompute); tl != grid.LevelE {
		t.Fatalf("delta entry not applied: %v", tl)
	}
	if tl, _ := rep.Table().Get(0, 0, grid.ActStorage); tl != grid.LevelC {
		t.Fatalf("unchanged entry lost in delta apply: %v", tl)
	}
	if rep.Table().Len() != int(grid.NumBuiltinActivities) {
		t.Fatalf("replica entry count = %d", rep.Table().Len())
	}
}

func TestDeltaFallsBackToSnapshotBeyondHistory(t *testing.T) {
	table, srv, addr := newServedTable(t)
	if err := table.Set(0, 0, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	rep, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	// Another replica drives many intermediate versions so the first
	// replica's version ages out of the 8-entry history window.
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	levels := []grid.TrustLevel{grid.LevelB, grid.LevelC, grid.LevelD, grid.LevelE}
	for i := 0; i < 12; i++ {
		if err := table.Set(0, 0, grid.ActCompute, levels[i%len(levels)]); err != nil {
			t.Fatal(err)
		}
		if _, err := other.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.SnapshotsServed()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.SnapshotsServed() != before+1 {
		t.Fatalf("stale replica did not receive a full snapshot")
	}
	if tl, _ := rep.Table().Get(0, 0, grid.ActCompute); tl != levels[11%len(levels)] {
		t.Fatalf("stale replica not caught up: %v", tl)
	}
}
