package fleet

import (
	"sync"
	"time"

	"gridtrust/internal/metrics"
)

// breaker is a per-peer circuit breaker on the forward path.  Forwarding
// to a dead shard otherwise pays the full dial timeout on every attempt
// of every request while holding an admission slot on the entry shard —
// the breaker converts that to an instant local decision.
//
// State machine:
//
//	closed ──(threshold consecutive failures)──▶ open
//	open ──(cooldown elapsed)──▶ half-open (one probe allowed)
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open (cooldown restarts)
//
// Any success closes the breaker and resets the failure count.  Every
// admitted attempt ends in record: the peer either answered, could not be
// dialled, or failed mid-exchange.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    breakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
	probing  bool // a half-open probe is in flight

	opens  uint64
	closes uint64
	openC  *metrics.Counter
	closeC *metrics.Counter
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

func newBreaker(threshold int, cooldown time.Duration, openC, closeC *metrics.Counter) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, openC: openC, closeC: closeC}
}

// allow reports whether an attempt against the peer may proceed.  An
// open breaker past its cooldown transitions to half-open and admits
// the caller as the single probe.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record reports the outcome of an admitted attempt.
func (b *breaker) record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		if b.state != breakerClosed {
			b.closes++
			b.closeC.Inc()
		}
		b.state = breakerClosed
		b.fails = 0
		b.probing = false
		return
	}
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.tripLocked()
		}
	case breakerHalfOpen:
		b.probing = false
		b.tripLocked()
	case breakerOpen:
		// A straggler attempt admitted before the trip; already open.
	}
}

// tripLocked opens the breaker.  Callers hold mu.
func (b *breaker) tripLocked() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.fails = 0
	b.opens++
	b.openC.Inc()
}

// snapshot reports the current state and lifetime transition counts.
func (b *breaker) snapshot() (state string, opens, closes uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String(), b.opens, b.closes
}
