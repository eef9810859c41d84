package cluster

import (
	"sort"
	"sync"
	"time"
)

// Per-worker circuit breakers. A worker that keeps failing dispatches —
// flapping, partitioned, or overloaded — trips its breaker open, and the
// coordinator stops burning retry budget (and backoff latency) on it
// until a half-open probe proves it recovered. The state machine is the
// classic three-state breaker:
//
//	closed    -> open       after Threshold consecutive failures
//	open      -> half-open  Probe after it opened, admitting ONE request
//	half-open -> closed     the probe succeeded
//	half-open -> open       the probe failed (the probe timer restarts)
//
// Breakers are softer than Registry.MarkDead: a dead worker leaves the
// ring and its keys rebalance, while an open breaker only pauses
// dispatch to a worker that is still a member (its heartbeats keep
// arriving) — exactly the flapping case where eviction would cause ring
// churn without fixing anything.

// BreakerState enumerates the circuit states. The numeric values are the
// wavepimctl.breaker_state gauge's encoding.
type BreakerState int

const (
	BreakerClosed   BreakerState = 0
	BreakerHalfOpen BreakerState = 1
	BreakerOpen     BreakerState = 2
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-worker breakers. Zero values select the
// defaults.
type BreakerConfig struct {
	Threshold int           // consecutive failures that open the breaker (default 5)
	Probe     time.Duration // open -> half-open probe delay (default 500ms)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Probe <= 0 {
		c.Probe = 500 * time.Millisecond
	}
	return c
}

// workerBreaker is one worker's circuit. Guarded by Breakers.mu.
type workerBreaker struct {
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the circuit last opened
	probing  bool      // a half-open probe is in flight
}

// BreakerView is one worker's breaker state for metrics and tests.
type BreakerView struct {
	Worker string       `json:"worker"`
	State  BreakerState `json:"state"`
	Fails  int          `json:"fails"`
}

// Breakers is the coordinator's set of per-worker circuits.
type Breakers struct {
	mu  sync.Mutex
	cfg BreakerConfig
	now func() time.Time
	m   map[string]*workerBreaker
}

// NewBreakers builds the breaker set (nil now selects time.Now).
func NewBreakers(cfg BreakerConfig, now func() time.Time) *Breakers {
	if now == nil {
		now = time.Now
	}
	return &Breakers{cfg: cfg.withDefaults(), now: now, m: map[string]*workerBreaker{}}
}

func (b *Breakers) get(id string) *workerBreaker {
	wb, ok := b.m[id]
	if !ok {
		wb = &workerBreaker{}
		b.m[id] = wb
	}
	return wb
}

// Allow reports whether a dispatch to the worker may proceed. An open
// breaker whose probe delay elapsed transitions to half-open and admits
// exactly one probe; concurrent dispatchers asking during the probe are
// refused until Success or Failure resolves it.
func (b *Breakers) Allow(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.get(id)
	switch wb.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(wb.openedAt) < b.cfg.Probe {
			return false
		}
		wb.state = BreakerHalfOpen
		wb.probing = true
		return true
	default: // half-open
		if wb.probing {
			return false
		}
		wb.probing = true
		return true
	}
}

// Success records a successful dispatch: the circuit closes and the
// failure streak resets.
func (b *Breakers) Success(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.get(id)
	wb.state = BreakerClosed
	wb.fails = 0
	wb.probing = false
}

// Failure records a failed dispatch and returns whether the circuit is
// now open. A failure in half-open state re-opens immediately (the probe
// disproved recovery); in closed state the streak must reach Threshold.
func (b *Breakers) Failure(id string) (open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	wb := b.get(id)
	wb.fails++
	if wb.state == BreakerHalfOpen || wb.fails >= b.cfg.Threshold {
		wb.state = BreakerOpen
		wb.openedAt = b.now()
		wb.probing = false
	}
	return wb.state == BreakerOpen
}

// Snapshot lists every tracked circuit sorted by worker id (the order
// the breaker_state gauge vec publishes in).
func (b *Breakers) Snapshot() []BreakerView {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]BreakerView, 0, len(b.m))
	for id, wb := range b.m {
		out = append(out, BreakerView{Worker: id, State: wb.state, Fails: wb.fails})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}
