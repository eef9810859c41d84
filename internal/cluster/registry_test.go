package cluster

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for registry TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestRegistry(ttl time.Duration) (*Registry, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	return NewRegistry(ttl, 64, clk.now), clk
}

// TestRegistryHeartbeatLifecycle: a first heartbeat registers (and joins
// the ring), repeat heartbeats refresh, and expiry drops stale workers.
func TestRegistryHeartbeatLifecycle(t *testing.T) {
	g, clk := newTestRegistry(time.Second)

	if isNew := g.Heartbeat("w1", "http://w1"); !isNew {
		t.Fatal("first heartbeat not reported as new")
	}
	if isNew := g.Heartbeat("w1", "http://w1"); isNew {
		t.Fatal("repeat heartbeat reported as new")
	}
	g.Heartbeat("w2", "http://w2")

	ws := g.Workers()
	if len(ws) != 2 || ws[0].ID != "w1" || ws[1].ID != "w2" {
		t.Fatalf("workers = %+v", ws)
	}
	if w, ok := g.OwnerOf("job-1"); !ok || (w.ID != "w1" && w.ID != "w2") {
		t.Fatalf("owner = %+v ok=%v", w, ok)
	}

	// w1 keeps beating, w2 goes silent past the TTL.
	clk.advance(600 * time.Millisecond)
	g.Heartbeat("w1", "http://w1")
	clk.advance(600 * time.Millisecond)
	if ws := g.Workers(); len(ws) != 1 || ws[0].ID != "w1" {
		t.Fatalf("workers after expiry = %+v", ws)
	}
	if w, ok := g.OwnerOf("job-1"); !ok || w.ID != "w1" {
		t.Fatalf("owner after expiry = %+v ok=%v", w, ok)
	}
}

// TestRegistryOwnerOfExpires: OwnerOf must never hand out a worker whose
// heartbeat is stale — lookup itself applies the TTL.
func TestRegistryOwnerOfExpires(t *testing.T) {
	g, clk := newTestRegistry(time.Second)
	g.Heartbeat("w1", "http://w1")
	clk.advance(2 * time.Second)
	if w, ok := g.OwnerOf("job-1"); ok {
		t.Fatalf("stale worker handed out: %+v", w)
	}
}

// TestRegistryDeregister: the draining handoff removes the worker from
// the ring immediately, and its keys land on the survivors.
func TestRegistryDeregister(t *testing.T) {
	g, _ := newTestRegistry(time.Minute)
	for _, w := range []string{"w1", "w2", "w3"} {
		g.Heartbeat(w, "http://"+w)
	}
	victim, ok := g.OwnerOf("job-42")
	if !ok {
		t.Fatal("no owner")
	}
	if !g.Deregister(victim.ID) {
		t.Fatal("deregister returned false for a member")
	}
	if g.Deregister(victim.ID) {
		t.Fatal("second deregister returned true")
	}
	after, ok := g.OwnerOf("job-42")
	if !ok || after.ID == victim.ID {
		t.Fatalf("key still owned by drained worker: %+v ok=%v", after, ok)
	}
	// A late heartbeat from a drained worker re-registers it (restart).
	if isNew := g.Heartbeat(victim.ID, victim.URL); !isNew {
		t.Fatal("re-registration after drain not new")
	}
	if len(g.Workers()) != 3 {
		t.Fatalf("workers = %+v", g.Workers())
	}
}

// TestRegistryMarkDead: a dispatch failure evicts the worker without
// waiting for the TTL.
func TestRegistryMarkDead(t *testing.T) {
	g, _ := newTestRegistry(time.Minute)
	g.Heartbeat("w1", "http://w1")
	g.Heartbeat("w2", "http://w2")
	g.MarkDead("w1")
	g.MarkDead("ghost") // absent: no-op
	ws := g.Workers()
	if len(ws) != 1 || ws[0].ID != "w2" {
		t.Fatalf("workers = %+v", ws)
	}
	if w, _ := g.OwnerOf("anything"); w.ID != "w2" {
		t.Fatalf("owner = %+v", w)
	}
}

// TestRegistryURLUpdate: a heartbeat with a new URL (worker restarted on
// a new port) updates the stored address without churning the ring.
func TestRegistryURLUpdate(t *testing.T) {
	g, _ := newTestRegistry(time.Minute)
	g.Heartbeat("w1", "http://old")
	before, _ := g.OwnerOf("job-7")
	if isNew := g.Heartbeat("w1", "http://new"); isNew {
		t.Fatal("URL update reported as new registration")
	}
	after, _ := g.OwnerOf("job-7")
	if after.URL != "http://new" || before.ID != after.ID {
		t.Fatalf("before=%+v after=%+v", before, after)
	}
}

// TestRegistryMinimalRebalance: expiring one of N workers remaps only
// that worker's jobs (the ring's minimal-disruption contract holds
// through the registry layer too).
func TestRegistryMinimalRebalance(t *testing.T) {
	g, clk := newTestRegistry(time.Second)
	workers := []string{"w1", "w2", "w3", "w4"}
	for _, w := range workers {
		g.Heartbeat(w, "http://"+w)
	}
	keys := corpus()
	before := map[string]string{}
	for _, k := range keys {
		w, _ := g.OwnerOf(k)
		before[k] = w.ID
	}
	// Everyone but w3 keeps beating.
	clk.advance(600 * time.Millisecond)
	for _, w := range workers {
		if w != "w3" {
			g.Heartbeat(w, "http://"+w)
		}
	}
	clk.advance(600 * time.Millisecond)
	moved := 0
	for _, k := range keys {
		w, ok := g.OwnerOf(k)
		if !ok {
			t.Fatal("no owner after expiry")
		}
		if w.ID != before[k] {
			if before[k] != "w3" {
				t.Fatalf("key %s moved %s -> %s though only w3 died", k, before[k], w.ID)
			}
			moved++
		}
	}
	if bound := 2 * len(keys) / len(workers); moved == 0 || moved >= bound {
		t.Fatalf("moved %d keys, want (0, %d)", moved, bound)
	}
}
