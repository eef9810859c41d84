package cluster

import (
	"testing"
	"time"
)

// tickClock is a manually advanced clock.
type tickClock struct{ at time.Time }

func (c *tickClock) now() time.Time          { return c.at }
func (c *tickClock) advance(d time.Duration) { c.at = c.at.Add(d) }
func newTickClock() *tickClock               { return &tickClock{at: time.Unix(1_700_000_000, 0)} }

// breakerState is the worker's circuit state in b's Snapshot, closed if
// b does not track the worker.
func breakerState(b *Breakers, id string) BreakerState {
	for _, v := range b.Snapshot() {
		if v.Worker == id {
			return v.State
		}
	}
	return BreakerClosed
}

// TestBreakerOpensAfterThreshold: the circuit stays closed through
// Threshold-1 consecutive failures, opens on the Threshold-th, and a
// success anywhere resets the streak.
func TestBreakerOpensAfterThreshold(t *testing.T) {
	clk := newTickClock()
	b := NewBreakers(BreakerConfig{Threshold: 3, Probe: time.Second}, clk.now)

	for i := 0; i < 2; i++ {
		if open := b.Failure("w1"); open {
			t.Fatalf("opened after %d failures (threshold 3)", i+1)
		}
		if !b.Allow("w1") {
			t.Fatalf("closed circuit refused dispatch after %d failures", i+1)
		}
	}
	b.Success("w1") // resets the streak
	for i := 0; i < 2; i++ {
		b.Failure("w1")
	}
	if st := breakerState(b, "w1"); st != BreakerClosed {
		t.Fatalf("state %v after reset + 2 failures", st)
	}
	if open := b.Failure("w1"); !open {
		t.Fatal("third consecutive failure did not open the circuit")
	}
	if b.Allow("w1") {
		t.Fatal("open circuit admitted a dispatch")
	}
	if st := breakerState(b, "w1"); st != BreakerOpen {
		t.Fatalf("state %v, want open", st)
	}
}

// TestBreakerHalfOpenProbe: after the probe delay the circuit admits
// exactly one probe; the probe's outcome closes or re-opens it.
func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := newTickClock()
	b := NewBreakers(BreakerConfig{Threshold: 1, Probe: time.Second}, clk.now)

	b.Failure("w1") // threshold 1: opens immediately
	if b.Allow("w1") {
		t.Fatal("open circuit admitted before the probe delay")
	}
	clk.advance(1500 * time.Millisecond)
	if !b.Allow("w1") {
		t.Fatal("probe refused after the delay elapsed")
	}
	if st := breakerState(b, "w1"); st != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", st)
	}
	// Only one probe at a time: a second dispatcher is refused.
	if b.Allow("w1") {
		t.Fatal("second concurrent probe admitted")
	}
	// Failed probe re-opens immediately and restarts the probe timer.
	b.Failure("w1")
	if st := breakerState(b, "w1"); st != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", st)
	}
	if b.Allow("w1") {
		t.Fatal("admitted right after a failed probe")
	}
	clk.advance(1500 * time.Millisecond)
	if !b.Allow("w1") {
		t.Fatal("second probe refused")
	}
	b.Success("w1")
	if st := breakerState(b, "w1"); st != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", st)
	}
	if !b.Allow("w1") {
		t.Fatal("closed circuit refused dispatch")
	}
}

// TestBreakerSnapshot: Snapshot lists circuits sorted by worker id.
func TestBreakerSnapshot(t *testing.T) {
	clk := newTickClock()
	b := NewBreakers(BreakerConfig{Threshold: 1, Probe: time.Second}, clk.now)
	b.Failure("w2")
	b.Failure("w1")
	b.Success("w3")

	snap := b.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot %v", snap)
	}
	for i, want := range []string{"w1", "w2", "w3"} {
		if snap[i].Worker != want {
			t.Fatalf("snapshot order %v", snap)
		}
	}
	if snap[0].State != BreakerOpen || snap[2].State != BreakerClosed {
		t.Fatalf("snapshot states %v", snap)
	}
}

// TestBreakerStateStrings pins the gauge encoding and names.
func TestBreakerStateStrings(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed: "closed", BreakerHalfOpen: "half-open", BreakerOpen: "open",
	}
	if BreakerClosed != 0 || BreakerHalfOpen != 1 || BreakerOpen != 2 {
		t.Fatal("gauge encoding changed")
	}
	for st, want := range cases {
		if st.String() != want {
			t.Fatalf("%d: %q", st, st.String())
		}
	}
}
