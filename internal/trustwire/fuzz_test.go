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

// FuzzApplyEntries feeds arbitrary entry lists to the replica-side
// installer: invalid entries must error before mutating, valid entries
// must install.
func FuzzApplyEntries(f *testing.F) {
	f.Add(0, 0, 0, "A")
	f.Add(3, 2, 1, "E")
	f.Add(-1, 0, 0, "B")
	f.Add(0, 0, 0, "F")
	f.Add(0, 0, 0, "zz")
	f.Fuzz(func(t *testing.T, cd, rd, act int, level string) {
		table := grid.NewTrustTable()
		err := applyEntries(table, []Entry{{CD: cd, RD: rd, Activity: act, Level: level}})
		if err != nil {
			if table.Len() != 0 {
				t.Fatalf("failed apply mutated the table")
			}
			return
		}
		if table.Len() != 1 {
			t.Fatalf("successful apply stored %d entries", table.Len())
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
		srv, err := NewServer(table, 2, 2, 5)
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
