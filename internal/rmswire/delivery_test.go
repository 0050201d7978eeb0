package rmswire

import (
	"errors"
	"testing"
	"time"

	"gridtrust/internal/frame"
	"gridtrust/internal/testutil"
)

// deliveryTable is the delivery model, one row per (delivery, status)
// pair: what After decides, what the Retrier therefore does, and what the
// fleet router therefore does (internal/fleet's TestRouterFollowsAfter
// drives the router through the same rows).  A status cannot accompany a
// request that was never answered, so those rows carry the empty status.
var deliveryTable = []struct {
	d       frame.Delivery
	status  string
	want    Next
	retrier string
	router  string
}{
	{frame.Answered, StatusOK, Final, "return ok", "relay"},
	{frame.Answered, StatusError, Final, "return the error", "relay"},
	{frame.Answered, "", Final, "return ok", "relay"},
	{frame.Answered, StatusOverloaded, Retry, "retry after retry_after", "relay: the owner is up, backoff is the client's"},
	{frame.MaybeSent, "", Retry, "retry: the replay settles it", "retry; the key is the owner's, never fail over"},
	{frame.NotSent, "", Failover, "retry: dial again", "retry; fail over if no attempt ever got further"},
	// After reads the delivery first: a status left over from an earlier
	// reply changes nothing about a request that was not answered.
	{frame.MaybeSent, StatusOK, Retry, "", ""},
	{frame.MaybeSent, StatusError, Retry, "", ""},
	{frame.MaybeSent, StatusOverloaded, Retry, "", ""},
	{frame.NotSent, StatusOK, Failover, "", ""},
	{frame.NotSent, StatusError, Failover, "", ""},
	{frame.NotSent, StatusOverloaded, Failover, "", ""},
}

func TestAfterTable(t *testing.T) {
	seen := map[[2]any]bool{}
	for _, row := range deliveryTable {
		if got := After(row.d, row.status); got != row.want {
			t.Errorf("After(%v, %q) = %v, want %v", row.d, row.status, got, row.want)
		}
		seen[[2]any{row.d, row.status}] = true
	}
	for _, d := range []frame.Delivery{frame.Answered, frame.NotSent, frame.MaybeSent} {
		for _, st := range []string{StatusOK, StatusError, StatusOverloaded, ""} {
			if !seen[[2]any{d, st}] {
				t.Errorf("the table has no row for (%v, %q)", d, st)
			}
		}
	}
}

const (
	replyOK         = `{"status":"ok","stats":{"placed":0,"agents_processed":0,"agents_committed":0,"agents_rejected":0,"table_version":0,"table_entries":0,"open_placements":0}}`
	replyError      = `{"status":"error","error":"no"}`
	replyOverloaded = `{"status":"overloaded","error":"busy","retry_after_ms":1}`
)

// TestRetrierFollowsAfter drives a Retrier against a scripted daemon
// through each row of the table: how many attempts it spends, and what
// the OpError it returns says about the last of them.
func TestRetrierFollowsAfter(t *testing.T) {
	cases := []struct {
		name     string
		script   []string // nil = nothing listening
		attempts uint64
		ok       bool
		last     frame.Delivery
		status   string
		final    bool // After(last, status) == Final
	}{
		{"ok is final", []string{replyOK}, 1, true, frame.Answered, StatusOK, true},
		{"error is final", []string{replyError}, 1, false, frame.Answered, StatusError, true},
		{"overloaded retries", []string{replyOverloaded, replyOverloaded, replyOK}, 3, true, frame.Answered, StatusOK, true},
		{"maybe sent retries", []string{testutil.HangUp, replyOK}, 2, true, frame.Answered, StatusOK, true},
		{"overloaded to the end", []string{replyOverloaded, replyOverloaded, replyOverloaded}, 3, false, frame.Answered, StatusOverloaded, false},
		{"maybe sent to the end", []string{}, 3, false, frame.MaybeSent, "", false},
		{"not sent to the end", nil, 3, false, frame.NotSent, "", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(testutil.LeakCheck(t))
			peer := testutil.NewScriptedPeer(t, tc.script...)
			if tc.script == nil {
				peer.Close()
			}
			r := NewRetrier(RetrierConfig{Addr: peer.Addr, Seed: 1, MaxAttempts: 3,
				BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond, OpTimeout: time.Second})
			defer r.Close()
			_, err := r.Stats()
			if (err == nil) != tc.ok {
				t.Fatalf("err = %v, want ok=%v", err, tc.ok)
			}
			if got := r.Counters().Attempts; got != tc.attempts {
				t.Fatalf("attempts = %d, want %d", got, tc.attempts)
			}
			if tc.ok {
				return
			}
			var oe *OpError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v (%T) is not an *OpError", err, err)
			}
			if oe.Delivery != tc.last || oe.Status != tc.status {
				t.Fatalf("OpError says (%v, %q), want (%v, %q)", oe.Delivery, oe.Status, tc.last, tc.status)
			}
			if final := After(oe.Delivery, oe.Status) == Final; final != tc.final {
				t.Fatalf("After calls the op final=%v, want %v", final, tc.final)
			}
			if exhausted := errors.Is(err, ErrExhausted); exhausted == tc.final {
				t.Fatalf("ErrExhausted=%v on an op After calls final=%v", exhausted, tc.final)
			}
		})
	}
}
