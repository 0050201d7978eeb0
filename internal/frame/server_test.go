package frame

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gridtrust/internal/testutil"
)

// closeWithin runs s.Close and fails t unless it returns within d.
func closeWithin(t *testing.T, s *echoServer, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close did not return within %v", d)
		<-done
	}
}

// waitConns waits until s serves n connections.
func waitConns(t *testing.T, s *echoServer, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); s.Conns() != n; {
		if time.Now().After(deadline) {
			t.Fatalf("server serves %d connections, want %d", s.Conns(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// readUntilEOF reads raw's frames until the server closes it, and
// returns them.
func readUntilEOF(t *testing.T, raw net.Conn) []ping {
	t.Helper()
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(raw)
	var got []ping
	for {
		var p ping
		err := Read(r, pingCodec.Frame(&p))
		if errors.Is(err, io.EOF) {
			return got
		}
		if err != nil {
			t.Fatalf("after %d frames: %v, want the server to close", len(got), err)
		}
		got = append(got, p)
	}
}

func dialRaw(t *testing.T, s *echoServer) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// TestServerCloseBeforeServeReleasesListener: a listener handed to a
// closed server is closed, not left bound with nothing accepting.
func TestServerCloseBeforeServeReleasesListener(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := NewServer(pingCodec, pingCodec, Handler[ping, ping]{})
	s.Close()
	addr := s.ServeListener(listen(t))
	if c, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		c.Close()
		t.Fatal("a dial connected to a listener served after Close")
	}
	raw, _ := net.Pipe()
	s.ServeConn(raw) // returns at once, closing raw
	if _, err := raw.Write([]byte("{}\n")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write to a connection served after Close: %v, want it closed", err)
	}
}

// TestServerCloseUnblocksHandlers: Close returns while one handler waits
// for a request that never comes and another writes a reply into a
// black-holed connection, neither of whose deadlines is near.
func TestServerCloseUnblocksHandlers(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	dialRaw(t, s) // sends nothing: its handler blocks in a read
	waitConns(t, s, 1)

	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	roundTrip(t, c, 0, ping{N: 1}, Answered)
	s.wire.Partition(true) // the reply to the next request is never drained
	var resp ping
	go func() { _, _ = c.RoundTrip(0, pingCodec.Frame(&ping{N: 2}), pingCodec.Frame(&resp)) }()
	for deadline := time.Now().Add(2 * time.Second); s.executed.Load() < 1; {
		if time.Now().After(deadline) {
			t.Fatal("the request was never read")
		}
		time.Sleep(time.Millisecond)
	}
	closeWithin(t, s, time.Second)
	if n := s.Conns(); n != 0 {
		t.Fatalf("%d connections still served after Close", n)
	}
}

// TestServerReapsSilentConnection: a connection that sends nothing is
// closed at the idle deadline, not before and not much after, and is sent
// nothing its next request could mistake for its reply.
func TestServerReapsSilentConnection(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	const idle = 100 * time.Millisecond
	s := serveEcho(t, idle, nil)
	start := time.Now()
	if got := readUntilEOF(t, dialRaw(t, s)); len(got) != 0 {
		t.Fatalf("reaped connection was sent %+v", got)
	}
	if elapsed := time.Since(start); elapsed < idle || elapsed > 20*idle {
		t.Fatalf("silent connection closed after %v, want about %v", elapsed, idle)
	}
	waitConns(t, s, 0)
}

// TestServerAdmissionRefusesWithOneFrame: a connection the protocol
// refuses at accept time gets the refusal frame and is closed unserved,
// and admission sees how many connections are being served.
func TestServerAdmissionRefusesWithOneFrame(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := serveEcho(t, DefaultIdleTimeout, func(open int, resp *ping) bool {
		if open == 0 {
			return false
		}
		*resp = ping{N: -2, Pad: "busy"}
		return true
	})
	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	roundTrip(t, c, 0, ping{N: 1}, Answered)

	got := readUntilEOF(t, dialRaw(t, s))
	if len(got) != 1 || got[0] != (ping{N: -2, Pad: "busy"}) {
		t.Fatalf("refused connection read %+v, want the one refusal frame", got)
	}
	if n := s.executed.Load(); n != 1 {
		t.Fatalf("server executed %d requests, want 1: a refused connection is not served", n)
	}
	if n := s.Conns(); n != 1 {
		t.Fatalf("server serves %d connections, want 1", n)
	}
}

// TestServerAnswersMalformedFrameOnce: a frame that does not parse gets
// one error reply and the connection closes; the valid frame behind it
// is never read.
func TestServerAnswersMalformedFrameOnce(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	raw := dialRaw(t, s)
	if _, err := raw.Write([]byte("gibberish\n{\"n\":2}\n")); err != nil {
		t.Fatal(err)
	}
	got := readUntilEOF(t, raw)
	if len(got) != 1 || got[0].N != -1 || !strings.Contains(got[0].Pad, "frame: unmarshal") {
		t.Fatalf("malformed frame answered with %+v, want one error reply", got)
	}
	if n := s.executed.Load(); n != 0 {
		t.Fatalf("server executed %d requests after a malformed frame", n)
	}
}

// TestServerFramesLongerThanTheReadBuffer: a frame longer than the read
// buffer, and one of exactly MaxBytes, cross both ways; one byte more is
// refused by the sender, and a flood past MaxBytes is answered by the
// server with ErrTooLarge.
func TestServerFramesLongerThanTheReadBuffer(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	envelope := len(`{"n":1,"pad":""}`)
	for _, size := range []int{3*readBuffer + 5, MaxBytes} {
		req := ping{N: 1, Pad: strings.Repeat("x", size-envelope)}
		var resp ping
		if d, err := c.RoundTrip(0, pingCodec.Frame(&req), pingCodec.Frame(&resp)); d != Answered || resp != req {
			t.Fatalf("%d-byte frame: %v (%v), echo equal %v", size, d, err, resp == req)
		}
	}
	over := ping{N: 1, Pad: strings.Repeat("x", MaxBytes-envelope+1)}
	if err := roundTrip(t, c, 0, over, NotSent); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frame of MaxBytes+1: %v, want ErrTooLarge", err)
	}

	raw := dialRaw(t, s)
	// Whole read buffers up to one past the limit, so the server closes
	// with nothing unread and its reply is not lost to a reset.
	go func() { _, _ = raw.Write(bytes.Repeat([]byte{'z'}, MaxBytes+readBuffer)) }()
	got := readUntilEOF(t, raw)
	if len(got) != 1 || !strings.Contains(got[0].Pad, ErrTooLarge.Error()) {
		t.Fatalf("flood answered with %d frames, want one naming ErrTooLarge", len(got))
	}
}

// TestServerLoopAllocatesNothingPerFrame: a round trip of a frame whose
// codec allocates nothing costs the client and the server loop nothing,
// deadlines included.
func TestServerLoopAllocatesNothingPerFrame(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	req, resp := ping{N: 7}, ping{}
	in, out := pingCodec.Frame(&req), pingCodec.Frame(&resp)
	if got := testing.AllocsPerRun(200, func() {
		if d, err := c.RoundTrip(0, in, out); d != Answered {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("a round trip allocates %v times, want 0", got)
	}
}
