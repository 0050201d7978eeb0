package fleet

import (
	"testing"
	"time"

	"gridtrust/internal/metrics"
)

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *metrics.Registry) {
	reg := metrics.NewRegistry()
	return newBreaker(threshold, cooldown,
		reg.Counter(metricBreakerOpen("p")), reg.Counter(metricBreakerClose("p"))), reg
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, reg := newTestBreaker(3, time.Hour)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker denied attempt %d", i)
		}
		b.record(false)
	}
	if state, _, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state after 2 failures = %s, want closed", state)
	}
	b.allow()
	b.record(false) // third consecutive failure trips it
	if state, opens, _ := b.snapshot(); state != "open" || opens != 1 {
		t.Fatalf("after threshold: state=%s opens=%d, want open/1", state, opens)
	}
	if b.allow() {
		t.Fatal("open breaker inside cooldown admitted an attempt")
	}
	if got := reg.Snapshot().Counters[metricBreakerOpen("p")]; got != 1 {
		t.Fatalf("open counter = %d, want 1", got)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Hour)
	b.allow()
	b.record(false)
	b.allow()
	b.record(false)
	b.allow()
	b.record(true) // streak broken
	b.allow()
	b.record(false)
	b.allow()
	b.record(false)
	if state, _, _ := b.snapshot(); state != "closed" {
		t.Fatalf("state = %s after interleaved success, want closed", state)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	const cooldown = 20 * time.Millisecond
	b, reg := newTestBreaker(1, cooldown)
	b.allow()
	b.record(false) // threshold 1: open immediately
	if b.allow() {
		t.Fatal("admitted during cooldown")
	}
	time.Sleep(2 * cooldown)

	// First caller after cooldown becomes the single half-open probe.
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe denied")
	}
	if state, _, _ := b.snapshot(); state != "half-open" {
		t.Fatalf("state = %s, want half-open", state)
	}
	if b.allow() {
		t.Fatal("second concurrent probe admitted")
	}

	// Probe failure reopens; probe success (after another cooldown)
	// closes.
	b.record(false)
	if state, opens, _ := b.snapshot(); state != "open" || opens != 2 {
		t.Fatalf("after failed probe: state=%s opens=%d, want open/2", state, opens)
	}
	time.Sleep(2 * cooldown)
	if !b.allow() {
		t.Fatal("second probe denied")
	}
	b.record(true)
	if state, _, closes := b.snapshot(); state != "closed" || closes != 1 {
		t.Fatalf("after successful probe: state=%s closes=%d, want closed/1", state, closes)
	}
	if got := reg.Snapshot().Counters[metricBreakerClose("p")]; got != 1 {
		t.Fatalf("close counter = %d, want 1", got)
	}
}
