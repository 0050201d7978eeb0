package testutil

import (
	"bufio"
	"net"
	"sync"
	"testing"
)

// ScriptedPeer is a TCP server for tests of the client side of a
// line-framed protocol.  Whatever connection a request line arrives on,
// it is answered by the next step of one script: a step is the reply
// line to write back, or HangUp to close the connection with the request
// read and nothing said — the lost reply.  Past the end of the script
// every request is hung up on.  It knows no protocol, so both wire
// packages' tests and the fleet's can use it.
type ScriptedPeer struct {
	Addr string

	ln net.Listener
	wg sync.WaitGroup

	mu       sync.Mutex
	steps    []string
	requests []string
	conns    map[net.Conn]struct{}
}

// HangUp is the script step that reads a request and drops the connection.
const HangUp = ""

// NewScriptedPeer starts a peer on a loopback port; it is stopped, and its
// goroutines waited for, when the test ends.
func NewScriptedPeer(t testing.TB, steps ...string) *ScriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &ScriptedPeer{Addr: ln.Addr().String(), ln: ln, steps: steps, conns: map[net.Conn]struct{}{}}
	p.wg.Add(1)
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *ScriptedPeer) accept() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *ScriptedPeer) serve(conn net.Conn) {
	defer p.wg.Done()
	defer conn.Close()
	r := bufio.NewReader(conn)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		p.mu.Lock()
		p.requests = append(p.requests, line)
		step := HangUp
		if len(p.steps) > 0 {
			step, p.steps = p.steps[0], p.steps[1:]
		}
		p.mu.Unlock()
		if step == HangUp {
			return
		}
		if _, err := conn.Write([]byte(step + "\n")); err != nil {
			return
		}
	}
}

// Requests returns the request lines read so far, in order.
func (p *ScriptedPeer) Requests() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.requests...)
}

// Close stops the peer: open connections die and later dials are
// refused.  Idempotent.
func (p *ScriptedPeer) Close() {
	p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
