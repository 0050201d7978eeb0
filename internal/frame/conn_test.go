package frame

import (
	"bufio"
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridtrust/internal/chaos"
	"gridtrust/internal/testutil"
)

type ping struct {
	N   int     `json:"n"`
	Pad string  `json:"pad,omitempty"`
	F   float64 `json:"f,omitempty"`
}

var pingCodec = NewCodec(
	Of("n", Int, func(p *ping) *int { return &p.N }),
	Of("pad,omitempty", String, func(p *ping) *string { return &p.Pad }),
	Of("f,omitempty", Float64, func(p *ping) *float64 { return &p.F }),
)

// echoServer answers every frame with the same frame, behind a chaos
// wire.  executed counts the requests it read in full — what a client can
// only guess at after a failed round trip — and accepted the connections.
type echoServer struct {
	ln       net.Listener
	wire     *chaos.Wire
	wg       sync.WaitGroup
	executed atomic.Int64
	accepted atomic.Int64

	mu    sync.Mutex
	conns []net.Conn
}

func startEcho(t *testing.T) *echoServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &echoServer{wire: chaos.NewWire(1)}
	s.ln = s.wire.Listener(ln)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				r := bufio.NewReader(conn)
				var p ping
				for {
					if Read(r, pingCodec.Frame(&p)) != nil {
						return
					}
					s.executed.Add(1)
					if Write(conn, pingCodec.Frame(&p)) != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(s.stop)
	return s
}

func (s *echoServer) stop() {
	s.wire.Partition(false)
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// roundTrip runs one exchange and checks the delivery it reports.
func roundTrip(t *testing.T, c *Conn, timeout time.Duration, req ping, want Delivery) error {
	t.Helper()
	var resp ping
	d, err := c.RoundTrip(timeout, pingCodec.Frame(&req), pingCodec.Frame(&resp))
	if d != want {
		t.Fatalf("delivery = %v (err %v), want %v", d, err, want)
	}
	if (err == nil) != (d == Answered) {
		t.Fatalf("delivery %v with error %v: the error must be nil exactly when answered", d, err)
	}
	if d == Answered && resp.N != req.N {
		t.Fatalf("echo of %d came back as %d", req.N, resp.N)
	}
	return err
}

func TestConnDialRefusedIsNotSent(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	addr := s.ln.Addr().String()
	s.stop()

	c := NewConn(addr, time.Second)
	defer c.Close()
	roundTrip(t, c, 0, ping{N: 1}, NotSent)
	if err := c.Dial(); err == nil {
		t.Fatal("Dial to a closed listener succeeded")
	}
	if dials, failed := c.Dials(); dials != 2 || failed != 2 {
		t.Fatalf("dials = %d (%d failed), want 2 (2 failed)", dials, failed)
	}
	if got := s.executed.Load(); got != 0 {
		t.Fatalf("server executed %d requests the client reported as not sent", got)
	}
}

// TestConnResetIsMaybeSentAndNeverReused resets the server's side once a
// first read has returned: after a whole small frame (the server executes
// it, the reply is lost) and in the middle of a large one (the client is
// still writing).  Either way the client cannot know, so both are maybe
// sent; and either way the stream is never used again.
func TestConnResetIsMaybeSentAndNeverReused(t *testing.T) {
	cases := []struct {
		name     string
		req      ping
		executed int64
	}{
		{"after-write", ping{N: 7}, 1},
		{"mid-write", ping{N: 7, Pad: strings.Repeat("x", MaxBytes-64)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(testutil.LeakCheck(t))
			s := startEcho(t)
			c := NewConn(s.ln.Addr().String(), time.Second)
			defer c.Close()
			s.wire.SetFaults(chaos.Faults{ResetProb: 1, ResetAfterMax: 1})
			roundTrip(t, c, 2*time.Second, tc.req, MaybeSent)
			s.wire.SetFaults(chaos.Faults{})
			roundTrip(t, c, 2*time.Second, ping{N: 8}, Answered)
			// The reset reaches the client before the server has counted
			// the request it read, so wait for the count to settle.
			want := tc.executed + 1
			for deadline := time.Now().Add(2 * time.Second); s.executed.Load() < want && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if got := s.executed.Load(); got != want {
				t.Fatalf("server executed %d requests, want %d: %d that the client was told may have been sent, and the retry",
					got, want, tc.executed)
			}
			if got := s.accepted.Load(); got != 2 {
				t.Fatalf("server accepted %d connections, want 2: the poisoned one must not be reused", got)
			}
			if dials, failed := c.Dials(); dials != 2 || failed != 0 {
				t.Fatalf("dials = %d (%d failed), want 2 (0 failed)", dials, failed)
			}
		})
	}
}

func TestConnBlackholedRoundTripCostsOneDeadline(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	const timeout = 150 * time.Millisecond
	roundTrip(t, c, timeout, ping{N: 1}, Answered)

	s.wire.Partition(true)
	start := time.Now()
	err := roundTrip(t, c, timeout, ping{N: 2}, MaybeSent)
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 4*timeout {
		t.Fatalf("black-holed round trip took %v, want about one %v deadline", elapsed, timeout)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("black-holed round trip failed with %v, want a timeout", err)
	}
	s.wire.Partition(false)
	roundTrip(t, c, timeout, ping{N: 3}, Answered)
	if got := s.accepted.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2", got)
	}
}

// TestConnDropAndClose: Drop costs the next round trip a dial and nothing
// else; Close is final; and a wrapped connection, which has no address,
// is finished by its first failure.
func TestConnDropAndClose(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	c := NewConn(s.ln.Addr().String(), time.Second)
	roundTrip(t, c, 0, ping{N: 1}, Answered)
	c.Drop()
	roundTrip(t, c, 0, ping{N: 2}, Answered)
	if dials, _ := c.Dials(); dials != 2 {
		t.Fatalf("dials = %d, want 2: one per connection", dials)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := roundTrip(t, c, 0, ping{N: 3}, NotSent); !errors.Is(err, ErrClosed) {
		t.Fatalf("round trip on a closed Conn failed with %v, want ErrClosed", err)
	}
	// An unencodable request never reaches the connection.
	nan := NewConn(s.ln.Addr().String(), time.Second)
	if err := roundTrip(t, nan, 0, ping{F: math.NaN()}, NotSent); !strings.Contains(err.Error(), "unsupported value: NaN") {
		t.Fatalf("unencodable request failed with %v, want encoding/json's error", err)
	}
	if dials, _ := nan.Dials(); dials != 0 {
		t.Fatalf("unencodable request dialled %d times", dials)
	}

	raw, err := net.Dial("tcp", s.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	w := Wrap(raw)
	defer w.Close()
	roundTrip(t, w, 0, ping{N: 4}, Answered)
	raw.Close()
	roundTrip(t, w, 0, ping{N: 5}, MaybeSent)
	if err := roundTrip(t, w, 0, ping{N: 6}, NotSent); !errors.Is(err, ErrClosed) {
		t.Fatalf("wrapped connection after a failure: %v, want ErrClosed", err)
	}
}

// TestConnOversizeRequestIsTypedAndNotSent: the sender refuses a frame
// over MaxBytes with the error the reader would have answered it with,
// before a byte of it leaves, and the connection carries on.
func TestConnOversizeRequestIsTypedAndNotSent(t *testing.T) {
	t.Cleanup(testutil.LeakCheck(t))
	s := startEcho(t)
	c := NewConn(s.ln.Addr().String(), time.Second)
	defer c.Close()
	roundTrip(t, c, 0, ping{N: 1}, Answered)
	err := roundTrip(t, c, 0, ping{N: 2, Pad: strings.Repeat("x", MaxBytes)}, NotSent)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize request failed with %v, want ErrTooLarge", err)
	}
	roundTrip(t, c, 0, ping{N: 3}, Answered)
	if dials, _ := c.Dials(); dials != 1 {
		t.Fatalf("dials = %d, want 1: refusing a frame must not cost the connection", dials)
	}
	if got := s.executed.Load(); got != 2 {
		t.Fatalf("server executed %d requests, want 2", got)
	}
}
