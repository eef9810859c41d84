package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Priority orders job classes; lower values drain first.
type Priority int8

const (
	PriorityHigh Priority = iota
	PriorityNormal
	PriorityLow
	numPriorities
)

// String returns the wire name.
func (p Priority) String() string {
	switch p {
	case PriorityHigh:
		return "high"
	case PriorityNormal:
		return "normal"
	case PriorityLow:
		return "low"
	}
	return "unknown"
}

// ParsePriority maps a wire name to its Priority; "" means normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "normal":
		return PriorityNormal, nil
	case "high":
		return PriorityHigh, nil
	case "low":
		return PriorityLow, nil
	}
	return 0, fmt.Errorf("cluster: unknown priority %q (want high, normal, low)", s)
}

// QuotaConfig bounds one tenant: MaxQueued jobs waiting for dispatch and
// MaxActive jobs running on workers. Zero fields select the defaults
// (1024 queued, 256 active).
type QuotaConfig struct {
	MaxQueued int
	MaxActive int
}

func (q QuotaConfig) withDefaults() QuotaConfig {
	if q.MaxQueued <= 0 {
		q.MaxQueued = 1024
	}
	if q.MaxActive <= 0 {
		q.MaxActive = 256
	}
	return q
}

// ErrQuota is the typed admission rejection: the tenant is at its queue
// quota. Callers map it to HTTP 429.
type ErrQuota struct {
	Tenant string
	Kind   string // "queued"
	Limit  int
}

func (e *ErrQuota) Error() string {
	return fmt.Sprintf("cluster: tenant %q at %s quota (%d)", e.Tenant, e.Kind, e.Limit)
}

// QueuedJob is the admission queue's view of a job: identity, tenant,
// class, enqueue instant (stamped by the coordinator; preserved across
// Requeue so queue age measures the oldest wait, not the latest), and an
// opaque payload the dispatcher forwards.
type QueuedJob struct {
	ID       string
	Tenant   string
	Priority Priority
	Enqueued time.Time
	Payload  any
}

// Depths is a snapshot of the admission queues. Oldest holds the enqueue
// instant of the front job per class (zero when the class is empty or
// jobs carry no stamp) — the age feed for the queue-age gauge.
type Depths struct {
	Queued  int
	ByClass [int(numPriorities)]int
	Oldest  [int(numPriorities)]time.Time
	Active  int
}

// Admission is the coordinator's admission-control layer: per-tenant
// quotas decide whether a submission is accepted, and accepted jobs wait
// in per-priority FIFO queues until a dispatcher claims them with Next.
// It layers on the workers' own backpressure — a job the cluster admits
// may still bounce off a full worker queue and be retried, but a tenant
// can never occupy more than its share of the cluster's attention.
type Admission struct {
	mu     sync.Mutex
	notify chan struct{} // closed+replaced on every state change
	closed bool

	def QuotaConfig

	queues [int(numPriorities)][]*QueuedJob
	queued map[string]int // per tenant
	active map[string]int // per tenant
}

// NewAdmission creates the admission layer with a default per-tenant
// quota (zero fields select the documented defaults).
func NewAdmission(def QuotaConfig) *Admission {
	return &Admission{
		notify: make(chan struct{}),
		def:    def.withDefaults(),
		queued: map[string]int{},
		active: map[string]int{},
	}
}

// wake signals every Next waiter. Caller holds mu.
func (a *Admission) wakeLocked() {
	close(a.notify)
	a.notify = make(chan struct{})
}

// Submit admits a job into its priority queue or rejects it with
// *ErrQuota (tenant at MaxQueued) / an error after Close.
func (a *Admission) Submit(j *QueuedJob) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return fmt.Errorf("cluster: admission closed")
	}
	if a.queued[j.Tenant] >= a.def.MaxQueued {
		return &ErrQuota{Tenant: j.Tenant, Kind: "queued", Limit: a.def.MaxQueued}
	}
	a.queued[j.Tenant]++
	a.queues[j.Priority] = append(a.queues[j.Priority], j)
	a.wakeLocked()
	return nil
}

// Restore re-admits a job during journal replay. It bypasses the queued
// quota: the job was already accepted (and journaled) by the previous
// incarnation, so a tightened quota must not silently drop it.
func (a *Admission) Restore(j *QueuedJob) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.queued[j.Tenant]++
	a.queues[j.Priority] = append(a.queues[j.Priority], j)
	a.wakeLocked()
}

// Requeue puts a claimed job back at the FRONT of its priority class
// (dispatch failed; the job must not lose its place) and releases the
// tenant's active slot taken by Next. After Close the job is dropped
// instead of re-enqueued — the dispatchers are exiting and a queue
// nobody will drain would only pin memory (a journaled coordinator
// re-admits the job on restart).
func (a *Admission) Requeue(j *QueuedJob) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active[j.Tenant] > 0 {
		a.active[j.Tenant]--
	}
	if a.closed {
		return
	}
	a.queued[j.Tenant]++
	a.queues[j.Priority] = append([]*QueuedJob{j}, a.queues[j.Priority]...)
	a.wakeLocked()
}

// Done releases a tenant's active slot once its job reached a terminal
// state.
func (a *Admission) Done(tenant string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.active[tenant] > 0 {
		a.active[tenant]--
	}
	a.wakeLocked()
}

// pickLocked removes and returns the first eligible job: highest
// priority first, FIFO within a class, skipping jobs whose tenant is at
// its MaxActive limit.
func (a *Admission) pickLocked() *QueuedJob {
	for p := range a.queues {
		for i, j := range a.queues[p] {
			if a.active[j.Tenant] >= a.def.MaxActive {
				continue
			}
			a.queues[p] = append(a.queues[p][:i], a.queues[p][i+1:]...)
			a.queued[j.Tenant]--
			a.active[j.Tenant]++
			return j
		}
	}
	return nil
}

// Next blocks until an eligible job is available (claiming one of its
// tenant's active slots) or until ctx is canceled / the admission layer
// is closed, in which case ok is false.
func (a *Admission) Next(ctx context.Context) (j *QueuedJob, ok bool) {
	for {
		a.mu.Lock()
		if j := a.pickLocked(); j != nil {
			a.mu.Unlock()
			return j, true
		}
		if a.closed {
			a.mu.Unlock()
			return nil, false
		}
		wait := a.notify
		a.mu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Depths snapshots queue occupancy.
func (a *Admission) Depths() Depths {
	a.mu.Lock()
	defer a.mu.Unlock()
	var d Depths
	for p := range a.queues {
		d.ByClass[p] = len(a.queues[p])
		d.Queued += len(a.queues[p])
		if len(a.queues[p]) > 0 {
			d.Oldest[p] = a.queues[p][0].Enqueued
		}
	}
	for _, n := range a.active {
		d.Active += n
	}
	return d
}

// Close rejects further submissions and unblocks every Next waiter.
func (a *Admission) Close() {
	a.mu.Lock()
	if !a.closed {
		a.closed = true
		a.wakeLocked()
	}
	a.mu.Unlock()
}
