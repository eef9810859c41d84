package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func job(id, tenant string, p Priority) *QueuedJob {
	return &QueuedJob{ID: id, Tenant: tenant, Priority: p}
}

// TestParsePriority pins the wire names.
func TestParsePriority(t *testing.T) {
	cases := []struct {
		in   string
		want Priority
		ok   bool
	}{
		{"", PriorityNormal, true},
		{"normal", PriorityNormal, true},
		{"high", PriorityHigh, true},
		{"low", PriorityLow, true},
		{"urgent", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePriority(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePriority(%q) = %v, %v", c.in, got, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePriority(%q) accepted", c.in)
		}
	}
}

// TestAdmissionPriorityOrder: queued jobs drain high before normal
// before low, FIFO within a class.
func TestAdmissionPriorityOrder(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 10, MaxActive: 10})
	for _, j := range []*QueuedJob{
		job("l1", "t", PriorityLow),
		job("n1", "t", PriorityNormal),
		job("h1", "t", PriorityHigh),
		job("n2", "t", PriorityNormal),
		job("h2", "t", PriorityHigh),
	} {
		if err := a.Submit(j); err != nil {
			t.Fatalf("Submit(%s): %v", j.ID, err)
		}
	}
	want := []string{"h1", "h2", "n1", "n2", "l1"}
	ctx := context.Background()
	for _, id := range want {
		j, ok := a.Next(ctx)
		if !ok || j.ID != id {
			t.Fatalf("Next = %v/%v, want %s", j, ok, id)
		}
	}
}

// TestAdmissionQueueQuota: a tenant at its queue quota is rejected with a
// typed error; other tenants are unaffected; draining the queue frees
// the quota.
func TestAdmissionQueueQuota(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 2, MaxActive: 10})
	if err := a.Submit(job("a1", "alice", PriorityNormal)); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(job("a2", "alice", PriorityNormal)); err != nil {
		t.Fatal(err)
	}
	err := a.Submit(job("a3", "alice", PriorityNormal))
	var qe *ErrQuota
	if !errors.As(err, &qe) || qe.Tenant != "alice" || qe.Kind != "queued" {
		t.Fatalf("quota error = %v", err)
	}
	if err := a.Submit(job("b1", "bob", PriorityNormal)); err != nil {
		t.Fatalf("other tenant rejected: %v", err)
	}
	if _, ok := a.Next(context.Background()); !ok {
		t.Fatal("Next failed")
	}
	if err := a.Submit(job("a3", "alice", PriorityNormal)); err != nil {
		t.Fatalf("quota not released: %v", err)
	}
}

// TestAdmissionActiveQuota: Next skips a tenant at its active limit and
// serves other tenants; Done releases the slot.
func TestAdmissionActiveQuota(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 10, MaxActive: 1})
	for _, j := range []*QueuedJob{
		job("a1", "alice", PriorityHigh),
		job("a2", "alice", PriorityHigh),
		job("b1", "bob", PriorityLow),
	} {
		if err := a.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	j1, _ := a.Next(ctx)
	if j1.ID != "a1" {
		t.Fatalf("first = %s", j1.ID)
	}
	// alice is at MaxActive=1, so the low-priority bob job goes next even
	// though a2 is high priority.
	j2, _ := a.Next(ctx)
	if j2.ID != "b1" {
		t.Fatalf("second = %s (active quota not enforced)", j2.ID)
	}
	// Nothing eligible: Next blocks until alice's slot frees.
	got := make(chan string, 1)
	go func() {
		j, ok := a.Next(ctx)
		if ok {
			got <- j.ID
		}
	}()
	select {
	case id := <-got:
		t.Fatalf("Next returned %s while alice was at quota", id)
	case <-time.After(50 * time.Millisecond):
	}
	a.Done("alice")
	select {
	case id := <-got:
		if id != "a2" {
			t.Fatalf("after release Next = %s", id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke after Done")
	}
}

// TestAdmissionRequeue: a requeued job (worker died) goes to the front of
// its priority class and does not double-count against the tenant's
// queue quota path.
func TestAdmissionRequeue(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 2, MaxActive: 10})
	a.Submit(job("n1", "t", PriorityNormal))
	a.Submit(job("n2", "t", PriorityNormal))
	ctx := context.Background()
	j, _ := a.Next(ctx)
	if j.ID != "n1" {
		t.Fatalf("first = %s", j.ID)
	}
	a.Requeue(j) // releases the active slot, jumps the queue
	next, _ := a.Next(ctx)
	if next.ID != "n1" {
		t.Fatalf("requeued job not first: got %s", next.ID)
	}
	if d := a.Depths(); d.Queued != 1 {
		t.Fatalf("depths = %+v", d)
	}
}

// TestAdmissionNextContext: a canceled context unblocks Next.
func TestAdmissionNextContext(t *testing.T) {
	a := NewAdmission(QuotaConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := a.Next(ctx)
		done <- ok
	}()
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a job from an empty queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next ignored context cancellation")
	}
}

// TestAdmissionClose: Close unblocks waiters and rejects new submits.
func TestAdmissionClose(t *testing.T) {
	a := NewAdmission(QuotaConfig{})
	done := make(chan bool, 1)
	go func() {
		_, ok := a.Next(context.Background())
		done <- ok
	}()
	a.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a job after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next ignored Close")
	}
	if err := a.Submit(job("x", "t", PriorityNormal)); err == nil {
		t.Fatal("Submit accepted after Close")
	}
}

// TestAdmissionConcurrent: many producers and consumers, every submitted
// job is handed out exactly once (run with -race).
func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 10000, MaxActive: 10000})
	const producers, perProducer = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < perProducer; k++ {
				prio := Priority(k % 3)
				if err := a.Submit(job(itoa(p*1000+k), "t", prio)); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}
		}(p)
	}
	seen := make(chan string, producers*perProducer)
	var cg sync.WaitGroup
	ctx := context.Background()
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				j, ok := a.Next(ctx)
				if !ok {
					return
				}
				seen <- j.ID
				a.Done(j.Tenant)
			}
		}()
	}
	wg.Wait()
	ids := map[string]bool{}
	for i := 0; i < producers*perProducer; i++ {
		select {
		case id := <-seen:
			if ids[id] {
				t.Fatalf("job %s handed out twice", id)
			}
			ids[id] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d jobs drained", len(ids))
		}
	}
	a.Close()
	cg.Wait()
}
