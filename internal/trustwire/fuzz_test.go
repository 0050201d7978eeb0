package trustwire

import (
	"bufio"
	"bytes"
	"testing"

	"gridtrust/internal/frame"
	"gridtrust/internal/grid"
)

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must never
// panic and must reject non-JSON input with an error.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte("{\"op\":\"sync\",\"have_version\":3}\n"))
	f.Add([]byte("not json\n"))
	f.Add([]byte("\n"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte("a"), 4096))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		_ = frame.Read(bufio.NewReader(bytes.NewReader(data)), requestCodec.Frame(&req))
	})
}

// FuzzApplyEntries feeds arbitrary entries to the replica-side
// installer over a base replica: an invalid entry must error and return
// no replica, a valid one must land in a new replica, and the base must
// never change.
func FuzzApplyEntries(f *testing.F) {
	f.Add(0, 0, 0, "A")
	f.Add(3, 2, 1, "E")
	f.Add(-1, 0, 0, "B")
	f.Add(0, 0, 0, "F")
	f.Add(0, 0, 0, "zz")
	f.Fuzz(func(t *testing.T, cd, rd, act int, level string) {
		base, err := applyEntries(nil, []Entry{{CD: 1, RD: 1, Activity: 1, Level: "C"}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := applyEntries(base, []Entry{{CD: cd, RD: rd, Activity: act, Level: level}}, 2)
		if base.Len() != 1 || base.Version() != 1 {
			t.Fatalf("apply changed its base: %d entries at %d", base.Len(), base.Version())
		}
		if tl, _ := base.Get(1, 1, 1); tl != grid.LevelC {
			t.Fatalf("apply changed its base entry to %v", tl)
		}
		if err != nil {
			if rep != nil {
				t.Fatal("failed apply returned a replica")
			}
			return
		}
		want, _ := grid.ParseLevel(level)
		tl, ok := rep.Get(grid.DomainID(cd), grid.DomainID(rd), grid.Activity(act))
		if !ok || tl != want || rep.Version() != 2 {
			t.Fatalf("apply stored %v/%v at %d, want %v at 2", tl, ok, rep.Version(), want)
		}
		n := 2
		if cd == 1 && rd == 1 && act == 1 {
			n = 1 // written over the base's entry
		}
		if rep.Len() != n {
			t.Fatalf("apply holds %d entries, want %d", rep.Len(), n)
		}
	})
}

// FuzzServerRespond drives the request dispatcher with arbitrary frames.
func FuzzServerRespond(f *testing.F) {
	f.Add("sync", uint64(0))
	f.Add("sync", uint64(99))
	f.Add("nuke", uint64(1))
	f.Fuzz(func(t *testing.T, op string, have uint64) {
		table := grid.NewTrustTable()
		_ = table.Set(0, 0, grid.ActCompute, grid.LevelC)
		srv, err := NewServer(table)
		if err != nil {
			t.Fatal(err)
		}
		resp := srv.respond(Request{Op: op, HaveVersion: have})
		switch resp.Status {
		case StatusSnapshot, StatusCurrent, StatusError:
		default:
			t.Fatalf("unknown response status %q", resp.Status)
		}
	})
}
