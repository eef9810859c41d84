package cluster

import (
	"sort"
	"sync"
	"time"
)

// Worker is one registered wavepimd instance.
type Worker struct {
	ID       string    `json:"id"`
	URL      string    `json:"url"`
	LastSeen time.Time `json:"last_seen"`
}

// Registry tracks cluster membership and drives the consistent-hash
// ring. Workers join and stay alive via Heartbeat, leave cleanly via
// Deregister (the draining handoff), and are evicted by TTL expiry or by
// MarkDead when a dispatch fails. Every membership change updates the
// ring, so job ownership rebalances with consistent hashing's minimal
// key movement.
type Registry struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	ring    *Ring
	workers map[string]*Worker
}

// NewRegistry creates a registry. Workers expire ttl after their last
// heartbeat (ttl <= 0 selects 10s). replicas configures the ring
// (<= 0 selects DefaultRingReplicas); now is the clock (nil selects
// time.Now).
func NewRegistry(ttl time.Duration, replicas int, now func() time.Time) *Registry {
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Registry{
		ttl:     ttl,
		now:     now,
		ring:    NewRing(replicas),
		workers: map[string]*Worker{},
	}
}

// Heartbeat registers or refreshes a worker and returns whether it was
// newly registered. A changed URL (worker restarted elsewhere) is
// adopted without ring churn — ring points depend only on the ID.
func (g *Registry) Heartbeat(id, url string) (isNew bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	w, ok := g.workers[id]
	if !ok {
		g.workers[id] = &Worker{ID: id, URL: url, LastSeen: g.now()}
		g.ring.Add(id)
		return true
	}
	w.URL = url
	w.LastSeen = g.now()
	return false
}

// Deregister is the draining handoff: the worker leaves the ring
// immediately so no new jobs route to it while it finishes its queue.
// Returns whether the worker was a member.
func (g *Registry) Deregister(id string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.dropLocked(id)
}

// MarkDead evicts a worker a dispatcher found unreachable, without
// waiting for its TTL.
func (g *Registry) MarkDead(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dropLocked(id)
}

func (g *Registry) dropLocked(id string) bool {
	if _, ok := g.workers[id]; !ok {
		return false
	}
	delete(g.workers, id)
	g.ring.Remove(id)
	return true
}

// expireLocked drops every worker whose last heartbeat is older than the
// TTL. Caller holds mu.
func (g *Registry) expireLocked() {
	cutoff := g.now().Add(-g.ttl)
	for id, w := range g.workers {
		if w.LastSeen.Before(cutoff) {
			g.dropLocked(id)
		}
	}
}

// OwnerOf expires stale workers, then resolves the ring owner of a
// canonical job id. The returned Worker is a copy.
func (g *Registry) OwnerOf(id string) (Worker, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireLocked()
	owner, ok := g.ring.OwnerOf(id)
	if !ok {
		return Worker{}, false
	}
	return *g.workers[owner], true
}

// Workers returns the live members sorted by ID (copies).
func (g *Registry) Workers() []Worker {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireLocked()
	out := make([]Worker, 0, len(g.workers))
	for _, w := range g.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
