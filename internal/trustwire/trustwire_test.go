package trustwire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
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
	srv, err := NewServer(table)
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
	if _, err := NewServer(nil); err == nil {
		t.Error("accepted nil table")
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
	if rep.Version() != table.Replica().Version() {
		t.Fatalf("replica version %d, table version %d", rep.Version(), table.Replica().Version())
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
	go rep.Poll(2*time.Millisecond, stop, sendErr(errs))

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

// sendErr is a Poll hook that hands each failed round's error to errs,
// dropping it when nobody is listening.
func sendErr(errs chan<- error) func(error) {
	return func(err error) {
		if err == nil {
			return
		}
		select {
		case errs <- err:
		default:
		}
	}
}

// TestReadsDoNotWaitBehindSync: a Sync stuck on a peer that never answers
// holds only the sync lock, so Table and Version still return at once.
func TestReadsDoNotWaitBehindSync(t *testing.T) {
	client, peer := net.Pipe()
	defer peer.Close()
	rep := NewReplica(frame.Wrap(client), 0)
	defer rep.Close()
	synced := make(chan error, 1)
	go func() {
		_, err := rep.Sync()
		synced <- err
	}()
	// Once the peer has read the request, Sync waits for a reply that
	// never comes.
	if _, err := bufio.NewReader(peer).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	read := make(chan uint64, 1)
	go func() { read <- rep.Table().Version() + rep.Version() }()
	select {
	case v := <-read:
		if v != 0 {
			t.Fatalf("replica read version %d before any reply", v)
		}
	case <-time.After(time.Second):
		t.Fatal("Table waited behind a Sync in flight")
	}
	peer.Close()
	if err := <-synced; err == nil {
		t.Fatal("Sync against a closed peer reported no error")
	}
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

// TestServerBoundsUnterminatedFrame streams past frame.MaxBytes without ever
// sending a newline: the server must answer once and drop the peer, not
// keep buffering in wait for the end of the line.
func TestServerBoundsUnterminatedFrame(t *testing.T) {
	_, _, addr := newServedTable(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Exactly 129 of the server's 8 KiB reads.  The limit is crossed on
	// the last one, so the server closes with nothing unread and its
	// reply is not lost to a connection reset.
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		_, _ = conn.Write(bytes.Repeat([]byte{'z'}, frame.MaxBytes+8<<10))
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
	base, err := applyEntries(nil, []Entry{{CD: 1, RD: 2, Activity: 0, Level: "C"}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name  string
		entry Entry
	}{
		{"bad level", Entry{CD: 0, RD: 0, Activity: 0, Level: "Z"}},
		{"negative CD", Entry{CD: -1, RD: 0, Activity: 0, Level: "A"}},
		{"negative activity", Entry{CD: 0, RD: 0, Activity: -1, Level: "A"}},
		{"non-offerable F entry", Entry{CD: 0, RD: 0, Activity: 0, Level: "F"}},
	} {
		rep, err := applyEntries(base, []Entry{{CD: 3, RD: 3, Activity: 0, Level: "A"}, bad.entry}, 2)
		if err == nil || rep != nil {
			t.Errorf("%s: replica %v, err %v; want an error and no replica", bad.name, rep, err)
		}
	}
	if tl, ok := base.Get(1, 2, 0); !ok || tl != grid.LevelC || base.Len() != 1 || base.Version() != 1 {
		t.Fatal("a rejected apply changed its base")
	}
}

// TestPeerSnapshotPastTheBoundsIsRefused: a snapshot naming an id past
// the table's bounds fails the sync and leaves the replica as it was, and
// refusing it allocates no more than refusing a bad level does: nothing
// is sized by the id.
func TestPeerSnapshotPastTheBoundsIsRefused(t *testing.T) {
	allocs := func(e Entry) float64 {
		return testing.AllocsPerRun(100, func() {
			if rep, err := applyEntries(nil, []Entry{e}, 1); err == nil || rep != nil {
				t.Fatalf("applied %+v", e)
			}
		})
	}
	badLevel := allocs(Entry{CD: 0, RD: 0, Activity: 0, Level: "F"})
	for _, e := range []Entry{
		{CD: 1 << 31, RD: 0, Activity: 0, Level: "C"},
		{CD: 0, RD: 1 << 31, Activity: 0, Level: "C"},
		{CD: 0, RD: 0, Activity: 1 << 20, Level: "C"},
	} {
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			if _, err := bufio.NewReader(server).ReadBytes('\n'); err != nil {
				return
			}
			resp := Response{Status: StatusSnapshot, Version: 9, Entries: []Entry{{CD: 1, RD: 1, Activity: 1, Level: "B"}, e}}
			_ = frame.Write(server, responseCodec.Frame(&resp))
		}()
		rep := NewReplica(frame.Wrap(client), 0)
		if applied, err := rep.Sync(); applied || err == nil {
			t.Errorf("snapshot with %+v: applied %v, err %v", e, applied, err)
		}
		if tab := rep.Table(); tab.Len() != 0 || tab.Version() != 0 {
			t.Errorf("snapshot with %+v changed the replica: %d entries at %d", e, tab.Len(), tab.Version())
		}
		rep.Close()
		// fmt's printer pool drops items under the race detector.
		if got := allocs(e); !raceEnabled && got > badLevel {
			t.Errorf("refusing %+v made %v allocations, a bad level %v", e, got, badLevel)
		}
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
	srv, err := NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go srv.ServeConn(server)
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

// TestReplicaFarBehindCatchesUpInOneDelta: a replica twelve versions
// behind gets the entries written since its version, in one delta.
func TestReplicaFarBehindCatchesUpInOneDelta(t *testing.T) {
	table, srv, addr := newServedTable(t)
	if err := table.Set(0, 0, grid.ActCompute, grid.LevelA); err != nil {
		t.Fatal(err)
	}
	if err := table.Set(1, 1, grid.ActStorage, grid.LevelB); err != nil {
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
	// Another replica follows twelve intermediate versions.
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
	snapshots, deltas := srv.SnapshotsServed(), srv.DeltasServed()
	if _, err := rep.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.SnapshotsServed() != snapshots || srv.DeltasServed() != deltas+1 {
		t.Fatalf("far-behind replica got %d snapshots and %d deltas, want one delta",
			srv.SnapshotsServed()-snapshots, srv.DeltasServed()-deltas)
	}
	if tl, _ := rep.Table().Get(0, 0, grid.ActCompute); tl != levels[11%len(levels)] {
		t.Fatalf("far-behind replica not caught up: %v", tl)
	}
	if tl, _ := rep.Table().Get(1, 1, grid.ActStorage); tl != grid.LevelB || rep.Table().Len() != 2 {
		t.Fatalf("delta lost an unchanged entry: %v, %d entries", tl, rep.Table().Len())
	}
	if rep.Version() != table.Replica().Version() {
		t.Fatalf("replica at version %d, table at %d", rep.Version(), table.Replica().Version())
	}
}

// denseTable fills every (cd, rd, activity) of 4 × 4 × the built-in
// activities with a level that varies along each axis, writing the cells
// in a scrambled order.
func denseTable(t *testing.T) *grid.TrustTable {
	t.Helper()
	table := grid.NewTrustTable()
	n := 4 * 4 * int(grid.NumBuiltinActivities)
	for i := 0; i < n; i++ {
		j := (i * 37) % n
		cd, rd, act := j/20, (j/5)%4, j%5
		lvl := grid.LevelA + grid.TrustLevel((cd+2*rd+3*act)%5)
		if err := table.Set(grid.DomainID(cd), grid.DomainID(rd), grid.Activity(act), lvl); err != nil {
			t.Fatal(err)
		}
	}
	return table
}

// responseBytes is the frame a server writes for resp.
func responseBytes(t *testing.T, resp Response) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := frame.Write(&buf, responseCodec.Frame(&resp)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdSnapshotFrameIsUnchanged compares a cold-sync snapshot of a
// dense table with the bytes the server wrote before it read the table
// by Since (testdata/dense_snapshot_d692d02.json, recorded from the
// same table).
func TestColdSnapshotFrameIsUnchanged(t *testing.T) {
	want, err := os.ReadFile("testdata/dense_snapshot_d692d02.json")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(denseTable(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := responseBytes(t, srv.respond(Request{Op: OpSync})); !bytes.Equal(got, want) {
		t.Fatalf("cold snapshot frame differs:\n got %s\nwant %s", got, want)
	}
}

// TestDeltaIsSortedAndRepeatable: a delta lists its entries in (cd, rd,
// activity) order, so two identical polls send identical bytes.
func TestDeltaIsSortedAndRepeatable(t *testing.T) {
	table := denseTable(t)
	have := table.Replica().Version()
	srv, err := NewServer(table)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite 20 cells in reverse key order.
	for j := 79; j >= 0; j -= 4 {
		if err := table.Set(grid.DomainID(j/20), grid.DomainID((j/5)%4), grid.Activity(j%5), grid.LevelE); err != nil {
			t.Fatal(err)
		}
	}
	resp := srv.respond(Request{Op: OpSync, HaveVersion: have})
	if resp.Status != StatusDelta || len(resp.Entries) != 20 || resp.Version != table.Replica().Version() {
		t.Fatalf("delta: status %q, %d entries at %d", resp.Status, len(resp.Entries), resp.Version)
	}
	key := func(e Entry) [3]int { return [3]int{e.CD, e.RD, e.Activity} }
	for i := 1; i < len(resp.Entries); i++ {
		a, b := key(resp.Entries[i-1]), key(resp.Entries[i])
		if !(a[0] < b[0] || a[0] == b[0] && (a[1] < b[1] || a[1] == b[1] && a[2] < b[2])) {
			t.Fatalf("delta out of order: %v before %v", a, b)
		}
	}
	first := responseBytes(t, resp)
	for i := 0; i < 8; i++ {
		if again := responseBytes(t, srv.respond(Request{Op: OpSync, HaveVersion: have})); !bytes.Equal(again, first) {
			t.Fatalf("two identical polls sent different deltas:\n%s\n%s", first, again)
		}
	}
}
