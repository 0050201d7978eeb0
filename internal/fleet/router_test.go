package fleet

import (
	"testing"
	"time"

	"gridtrust/internal/grid"
	"gridtrust/internal/metrics"
	"gridtrust/internal/rmswire"
	"gridtrust/internal/testutil"
)

// TestRouterFollowsAfter drives router.forward against a scripted owner
// through the rows of the delivery model (rmswire's deliveryTable): an
// answered frame is relayed verbatim whatever it says, a lost reply is
// retried and forbids failover for good, and only an op none of whose
// attempts was ever sent may be served locally — a submit; never a report.
func TestRouterFollowsAfter(t *testing.T) {
	const (
		replyPlaced     = `{"status":"ok","placement":{"id":281474976710657,"machine":1,"rd":1,"cd":1,"otl":"C","tc":0,"eec":1,"esc":0,"ecc":1,"start":0,"finish":1}}`
		replyReplayed   = `{"status":"ok","replayed":true}`
		replyError      = `{"status":"error","error":"no"}`
		replyOverloaded = `{"status":"overloaded","error":"busy","retry_after_ms":7}`
	)
	ring, err := NewRing([]string{"s0", "s1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	client := -1
	for c := 0; c < 4 && client < 0; c++ {
		if ring.OwnerIndex(CDKey(grid.DomainID(c))) == 1 {
			client = c
		}
	}
	if client < 0 {
		t.Skip("ring gave shard 1 no CDs (vnode layout)")
	}
	submit := rmswire.Request{Op: rmswire.OpSubmit, Client: client, IdemKey: "k"}
	report := rmswire.Request{Op: rmswire.OpReport, PlacementID: 1<<rmswire.ShardIDShift | 1, Outcome: 5}

	cases := []struct {
		name      string
		req       rmswire.Request
		script    []string // nil = the owner is down from the start
		dieAfter1 bool     // the owner goes down once it has read one request
		handled   bool     // false = served locally (failover)
		status    string
		retryMS   int64
		requests  int // frames the owner read; 0 = not checked
	}{
		{"ok relays", submit, []string{replyPlaced}, false, true, rmswire.StatusOK, 0, 1},
		{"error relays", submit, []string{replyError}, false, true, rmswire.StatusError, 0, 1},
		{"overloaded relays, not retried", submit, []string{replyOverloaded, replyPlaced}, false, true, rmswire.StatusOverloaded, 7, 1},
		{"lost reply retried: submit replays by key", submit, []string{testutil.HangUp, replyPlaced}, false, true, rmswire.StatusOK, 0, 2},
		{"lost reply retried: report replays by flag", report, []string{testutil.HangUp, replyReplayed}, false, true, rmswire.StatusOK, 0, 2},
		{"lost reply to the end never fails over", submit, []string{}, false, true, rmswire.StatusOverloaded, forwardRetryAfter.Milliseconds(), 3},
		{"lost reply once, then down: never fails over", submit, []string{}, true, true, rmswire.StatusOverloaded, forwardRetryAfter.Milliseconds(), 0},
		{"never sent: a submit fails over", submit, nil, false, false, "", 0, 0},
		{"never sent: a report does not", report, nil, false, true, rmswire.StatusOverloaded, forwardRetryAfter.Milliseconds(), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(testutil.LeakCheck(t))
			owner := testutil.NewScriptedPeer(t, tc.script...)
			if tc.script == nil {
				owner.Close()
			}
			cfg := Config{
				Shards:               []ShardConfig{{Name: "s0", Addr: "unused:0"}, {Name: "s1", Addr: owner.Addr}},
				ForwardAttempts:      3,
				ForwardDialTimeoutMS: 1000,
				ForwardOpTimeoutMS:   1000,
				BreakerThreshold:     1 << 30, // isolate the forward loop from the breaker
			}
			stop := make(chan struct{})
			defer close(stop)
			reg := metrics.NewRegistry()
			r := newRouter(cfg, 0, ring, fleetTopology(t), reg, stop)
			defer r.close()
			if tc.dieAfter1 {
				done := make(chan struct{})
				defer func() { <-done }()
				go func() {
					defer close(done)
					for deadline := time.Now().Add(5 * time.Second); len(owner.Requests()) < 1 && time.Now().Before(deadline); {
						time.Sleep(100 * time.Microsecond)
					}
					owner.Close()
				}()
			}

			resp, handled := r.Route(tc.req)
			if handled != tc.handled {
				t.Fatalf("handled = %v (reply %+v), want %v", handled, resp, tc.handled)
			}
			if resp.Status != tc.status || resp.RetryAfterMS != tc.retryMS {
				t.Fatalf("reply status %q retry_after %d ms, want %q %d ms", resp.Status, resp.RetryAfterMS, tc.status, tc.retryMS)
			}
			if got := len(owner.Requests()); tc.requests != 0 && got != tc.requests {
				t.Fatalf("owner read %d frames, want %d", got, tc.requests)
			}
			if tc.req.Op == rmswire.OpReport && tc.status == rmswire.StatusOK && !resp.Replayed {
				t.Fatal("the owner's replayed flag was not relayed")
			}
			failovers := reg.Snapshot().Counters[metricFailover("s1")]
			if want := map[bool]uint64{true: 0, false: 1}[tc.handled]; failovers != want {
				t.Fatalf("failover counter = %d, want %d", failovers, want)
			}
		})
	}
}
