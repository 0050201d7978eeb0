package frame

import (
	"bufio"
	"net"
	"testing"
	"time"

	"gridtrust/internal/testutil"
)

// serveRelay starts a server that answers a request the fast path read
// with the request's own line, built over the connection's relay, and
// any other request with its encoded echo.
func serveRelay(t *testing.T) net.Listener {
	t.Helper()
	ln := listen(t)
	s := NewServer(pingCodec, pingCodec, Handler[ping, ping]{
		Respond: func(line []byte, req, resp *ping, relay *Line) ([]byte, bool) {
			if line != nil {
				relay.Bytes = append(relay.Bytes[:0], line...)
				return relay.Bytes, false
			}
			*resp = *req
			return nil, false
		},
		Fail: func(err error, resp *ping) { *resp = ping{N: -1, Pad: err.Error()} },
	})
	s.ServeListener(ln)
	t.Cleanup(s.Close)
	return ln
}

// TestServerHandsRespondTheLineItRead: Respond sees a request's line,
// without its newline, exactly when the fast path read it, and a reply
// line it returns goes out as it stands.
func TestServerHandsRespondTheLineItRead(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	ln := serveRelay(t)
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	r := bufio.NewReader(raw)
	for _, tc := range []struct{ sent, back string }{
		{`{"n":1,"pad":"a"}`, `{"n":1,"pad":"a"}`},
		{`{ "n":2,  "f":1.50 }`, `{ "n":2,  "f":1.50 }`},
		{`{"f":2,"n":3}`, `{"f":2,"n":3}`},
		{`{"n":4,"pad":"\u0041"}`, `{"n":4,"pad":"A"}`}, // an escape: json.Unmarshal's, re-encoded
		{`{"N":5}`, `{"n":5}`},                          // a folded key: likewise
	} {
		_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Write([]byte(tc.sent + "\n")); err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadString('\n')
		if err != nil || got != tc.back+"\n" {
			t.Fatalf("sent %s, got %q (%v), want %s", tc.sent, got, err, tc.back)
		}
	}
}

// TestLineIsBothHalvesOfARoundTrip: one Line sends its bytes and comes
// back holding the reply's line and its decoded value; a reply that does
// not decode leaves the request in it to resend.
func TestLineIsBothHalvesOfARoundTrip(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	c := NewConn(serveRelay(t).Addr().String(), time.Second)
	defer c.Close()
	var got ping
	l := &Line{Bytes: []byte(`{"n":7,"pad":"x"}`), Of: pingCodec.Frame(&got)}
	if d, err := c.RoundTrip(0, l, l); d != Answered {
		t.Fatal(err)
	}
	if string(l.Bytes) != `{"n":7,"pad":"x"}` || got != (ping{N: 7, Pad: "x"}) {
		t.Fatalf("relay holds %q decoded as %+v", l.Bytes, got)
	}

	peer := testutil.NewScriptedPeer(t, `{"n":"not a number"}`)
	defer peer.Close()
	bad := NewConn(peer.Addr, time.Second)
	defer bad.Close()
	l.Bytes = append(l.Bytes[:0], `{"n":8}`...)
	if d, err := bad.RoundTrip(0, l, l); d != MaybeSent || err == nil {
		t.Fatalf("undecodable reply: delivery %v, error %v; want maybe sent and an error", d, err)
	}
	if string(l.Bytes) != `{"n":8}` {
		t.Fatalf("after a failed round trip the relay holds %q, want the request", l.Bytes)
	}
}

// TestRelayAllocatesNothing: a round trip of one Line, whose frame the
// codec decodes without allocating, through a server that answers with
// the request's line costs the client and the server loop nothing.
func TestRelayAllocatesNothing(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	c := NewConn(serveRelay(t).Addr().String(), time.Second)
	defer c.Close()
	var got ping
	l := &Line{Bytes: []byte(`{"n":9,"f":2.5}`), Of: pingCodec.Frame(&got)}
	if n := testing.AllocsPerRun(200, func() {
		if d, err := c.RoundTrip(0, l, l); d != Answered {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a relayed round trip allocates %v times, want 0", n)
	}
}
