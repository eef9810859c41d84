package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeWorker is a minimal wavepimd stand-in: POST /v1/runs accepts,
// GET /v1/runs/{id} answers with a programmable status.
type fakeWorker struct {
	ts     *httptest.Server
	posts  atomic.Int64
	status atomic.Value // string: "running", "done", "failed"
	reject atomic.Int64 // while > 0, POSTs answer 503 and decrement
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	fw := &fakeWorker{}
	fw.status.Store("done")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, req *http.Request) {
		fw.posts.Add(1)
		if fw.reject.Load() > 0 {
			fw.reject.Add(-1)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		var spec JobSpec
		json.NewDecoder(req.Body).Decode(&spec)
		json.NewEncoder(w).Encode(map[string]string{"id": spec.ID})
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		st := fw.status.Load().(string)
		json.NewEncoder(w).Encode(map[string]string{
			"id": req.PathValue("id"), "status": st,
		})
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

// register adds the fake worker to the coordinator's ring directly (no
// heartbeat loop: these are dispatch unit tests).
func (fw *fakeWorker) register(c *Coordinator, id string) {
	c.reg.Heartbeat(id, fw.ts.URL)
}

func waitTerminal(t *testing.T, c *Coordinator, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := c.Job(id); ok {
			v := j.view()
			if v.Status == "done" || v.Status == "failed" {
				return v
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
	return JobView{}
}

// TestRetryBudgetExhausted: a job whose owner never stops bouncing it
// terminates as "failed" with a typed *ErrRetriesExhausted after exactly
// MaxRetries attempts — it does not spin forever.
func TestRetryBudgetExhausted(t *testing.T) {
	fw := newFakeWorker(t)
	fw.reject.Store(1 << 30) // bounce every POST
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, MaxRetries: 3, BackoffBase: time.Millisecond,
		BackoffCap: 2 * time.Millisecond, TTL: time.Minute,
		Breaker: BreakerConfig{Threshold: 100}, // keep the breaker out of this test
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")

	j, _, err := c.Submit(JobSpec{ID: "budget-1", Equation: "acoustic", Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, c, "budget-1", 10*time.Second)
	if v.Status != "failed" {
		t.Fatalf("status %s", v.Status)
	}
	if v.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", v.Attempts)
	}
	var ex *ErrRetriesExhausted
	if !errors.As(j.Err(), &ex) {
		t.Fatalf("terminal error %v is not *ErrRetriesExhausted", j.Err())
	}
	if ex.ID != "budget-1" || ex.Attempts != 3 {
		t.Fatalf("exhausted %+v", ex)
	}
	if got := fw.posts.Load(); got != 3 {
		t.Fatalf("worker saw %d POSTs, want 3", got)
	}
}

// TestRetryRecovers: a worker that bounces twice then accepts yields a
// done job with attempts=2 — the budget charges only real failures.
func TestRetryRecovers(t *testing.T) {
	fw := newFakeWorker(t)
	fw.reject.Store(2)
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, MaxRetries: 10, BackoffBase: time.Millisecond,
		BackoffCap: 2 * time.Millisecond, TTL: time.Minute,
		Breaker: BreakerConfig{Threshold: 100},
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")
	if _, _, err := c.Submit(JobSpec{ID: "recover-1", Equation: "acoustic", Steps: 2}); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, c, "recover-1", 10*time.Second)
	if v.Status != "done" || v.Attempts != 2 {
		t.Fatalf("view %+v", v)
	}
}

// TestRetryBackoffDeterministic: same (seed, id, attempt) → same delay;
// the delay stays within [0.5, 1.0) of the capped exponential raw value;
// different seeds jitter differently.
func TestRetryBackoffDeterministic(t *testing.T) {
	base, cap := 10*time.Millisecond, 2*time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		a := RetryBackoff(7, "job-x", attempt, base, cap)
		b := RetryBackoff(7, "job-x", attempt, base, cap)
		if a != b {
			t.Fatalf("attempt %d nondeterministic: %v vs %v", attempt, a, b)
		}
		raw := base
		for i := 1; i < attempt && raw < cap; i++ {
			raw *= 2
		}
		if raw > cap {
			raw = cap
		}
		if a < raw/2 || a >= raw {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, a, raw/2, raw)
		}
	}
	if RetryBackoff(1, "job-x", 3, base, cap) == RetryBackoff(2, "job-x", 3, base, cap) {
		t.Fatal("different seeds produced identical jitter")
	}
	if RetryBackoff(1, "job-x", 3, base, cap) == RetryBackoff(1, "job-y", 3, base, cap) {
		t.Fatal("different jobs produced identical jitter")
	}
}

// TestSanitizeCause strips url.Error wrappers so ephemeral ports never
// reach job-table error strings.
func TestSanitizeCause(t *testing.T) {
	inner := errors.New("connection refused")
	wrapped := &url.Error{Op: "Post", URL: "http://127.0.0.1:49152/v1/runs", Err: inner}
	if got := sanitizeCause(wrapped); got != inner {
		t.Fatalf("sanitized to %v", got)
	}
	plain := errors.New("plain")
	if got := sanitizeCause(plain); got != plain {
		t.Fatalf("plain error mangled: %v", got)
	}
}

// TestBreakerShieldsDispatch: once a worker's circuit opens, dispatch
// stops reaching it — the worker sees no POSTs while open, and jobs
// flow again after it recovers through the half-open probe.
func TestBreakerShieldsDispatch(t *testing.T) {
	fw := newFakeWorker(t)
	fw.reject.Store(2) // exactly two bounces open the threshold-2 breaker
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, MaxRetries: 50, BackoffBase: time.Millisecond,
		BackoffCap: 5 * time.Millisecond, TTL: time.Minute,
		Breaker: BreakerConfig{Threshold: 2, Probe: 20 * time.Millisecond},
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")
	if _, _, err := c.Submit(JobSpec{ID: "brk-1", Equation: "acoustic", Steps: 2}); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, c, "brk-1", 10*time.Second)
	if v.Status != "done" {
		t.Fatalf("view %+v", v)
	}
	if st := breakerState(c.breakers, "w1"); st != BreakerClosed {
		t.Fatalf("breaker %v after recovery", st)
	}
	// The circuit opened after the second bounce, so the third POST (the
	// success) must have waited for the probe window; total POSTs = 3.
	if got := fw.posts.Load(); got != 3 {
		t.Fatalf("worker saw %d POSTs, want 3 (breaker did not shield)", got)
	}
}

// TestDeadlinePropagation: a job whose DeadlineMS (plus grace) expires
// while its worker never finishes terminates as failed with a deadline
// error instead of polling forever.
func TestDeadlinePropagation(t *testing.T) {
	fw := newFakeWorker(t)
	fw.status.Store("running") // never finishes
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, PollInterval: 2 * time.Millisecond, TTL: time.Minute,
		DeadlineGrace: 50 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")
	if _, _, err := c.Submit(JobSpec{ID: "dl-1", Equation: "acoustic", Steps: 2, DeadlineMS: 20}); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, c, "dl-1", 10*time.Second)
	if v.Status != "failed" {
		t.Fatalf("view %+v", v)
	}
	if want := "deadline exceeded"; !strings.Contains(v.Error, want) {
		t.Fatalf("error %q lacks %q", v.Error, want)
	}
}

// TestCloseRacesPollLoop: Close returns promptly while a dispatcher is
// mid-poll on a never-finishing run (the poll loop must observe ctx
// cancellation, not block on the worker).
func TestCloseRacesPollLoop(t *testing.T) {
	fw := newFakeWorker(t)
	fw.status.Store("running")
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 2, PollInterval: 2 * time.Millisecond, TTL: time.Minute,
	})
	fw.register(c, "w1")
	if _, _, err := c.Submit(JobSpec{ID: "race-1", Equation: "acoustic", Steps: 2}); err != nil {
		t.Fatal(err)
	}
	// Wait until the job is genuinely in the poll loop.
	deadline := time.Now().Add(5 * time.Second)
	for fw.posts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fw.posts.Load() == 0 {
		t.Fatal("job never dispatched")
	}
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on an in-flight poll loop")
	}
}

// TestRequeueAfterClose: a Requeue that loses the race with Close drops
// the job instead of parking it in a queue nobody will drain.
func TestRequeueAfterClose(t *testing.T) {
	a := NewAdmission(QuotaConfig{})
	if err := a.Submit(&QueuedJob{ID: "q1", Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	j, ok := a.Next(context.Background())
	if !ok {
		t.Fatal("Next failed")
	}
	a.Close()
	a.Requeue(j)
	if d := a.Depths(); d.Queued != 0 || d.Active != 0 {
		t.Fatalf("depths after closed requeue: %+v", d)
	}
	// Restore after Close is likewise a no-op.
	a.Restore(&QueuedJob{ID: "q2", Tenant: "t"})
	if d := a.Depths(); d.Queued != 0 {
		t.Fatalf("restore after close enqueued: %+v", d)
	}
}

// TestAdmissionRestoreBypassesQuota: replayed jobs re-admit even when
// the tenant is at its queued quota — they were already accepted once.
func TestAdmissionRestoreBypassesQuota(t *testing.T) {
	a := NewAdmission(QuotaConfig{MaxQueued: 1})
	if err := a.Submit(&QueuedJob{ID: "q1", Tenant: "t"}); err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(&QueuedJob{ID: "q2", Tenant: "t"}); err == nil {
		t.Fatal("second submit beat the quota")
	}
	a.Restore(&QueuedJob{ID: "q2", Tenant: "t"})
	if d := a.Depths(); d.Queued != 2 {
		t.Fatalf("depths %+v, want 2 queued", d)
	}
}

// TestJobEviction: the tracked-job bound evicts the oldest terminal
// jobs (and their cache entries) and counts them.
func TestJobEviction(t *testing.T) {
	fw := newFakeWorker(t)
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 2, MaxJobs: 4, TTL: time.Minute,
		BackoffBase: time.Millisecond,
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("evict-%d", i)
		if _, _, err := c.Submit(JobSpec{ID: id, Equation: "acoustic", Steps: 2 + i}); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, c, id, 10*time.Second)
	}
	views := c.Jobs()
	if len(views) > 4 {
		t.Fatalf("job table holds %d jobs, bound is 4", len(views))
	}
	// The survivors are the newest.
	if views[len(views)-1].ID != "evict-7" {
		t.Fatalf("newest job evicted: %+v", views)
	}
	if _, ok := c.Job("evict-0"); ok {
		t.Fatal("oldest job survived the bound")
	}
	if got := c.metrics.Counter("wavepimctl.jobs_evicted").Value(); got < 4 {
		t.Fatalf("jobs_evicted = %d, want >= 4", got)
	}
}

// TestReplayRestoresAndRequeues: a coordinator rebuilt from journal
// records restores terminal jobs verbatim and re-admits the rest.
func TestReplayRestoresAndRequeues(t *testing.T) {
	fw := newFakeWorker(t)
	specA, _ := json.Marshal(JobSpec{ID: "ra", Equation: "acoustic", Steps: 2})
	specB, _ := json.Marshal(JobSpec{ID: "rb", Equation: "acoustic", Steps: 3})
	report := json.RawMessage(`{"id":"ra","status":"done","report":"verbatim-bytes"}`)
	recs := []JournalRecord{
		{T: JournalSubmit, ID: "ra", Spec: specA},
		{T: JournalDispatch, ID: "ra", Worker: "w1"},
		{T: JournalTerminal, ID: "ra", Status: "done", Result: report},
		{T: JournalSubmit, ID: "rb", Spec: specB},
		{T: JournalDispatch, ID: "rb", Worker: "w1"}, // mid-flight at crash
	}
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, TTL: time.Minute, BackoffBase: time.Millisecond,
		Replay: recs,
	})
	t.Cleanup(c.Close)
	fw.register(c, "w1")

	st := c.Replay()
	if st.Records != 5 || st.Restored != 1 || st.Requeued != 1 || st.Dropped != 0 {
		t.Fatalf("replay stats %+v", st)
	}
	// The terminal job's report is byte-identical.
	j, ok := c.Job("ra")
	if !ok {
		t.Fatal("restored job missing")
	}
	j.mu.Lock()
	got := string(j.result)
	j.mu.Unlock()
	if got != string(report) {
		t.Fatalf("restored report %q", got)
	}
	// The mid-flight job runs to completion on the re-registered worker.
	v := waitTerminal(t, c, "rb", 10*time.Second)
	if v.Status != "done" {
		t.Fatalf("requeued job %+v", v)
	}
	// Auto-ids skip past replayed jNNNN ids.
	c2 := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, TTL: time.Minute,
		Replay: []JournalRecord{{T: JournalSubmit, ID: "j0007", Spec: specA}},
	})
	t.Cleanup(c2.Close)
	jv, _, err := c2.Submit(JobSpec{Equation: "acoustic", Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if jv.id != "j0008" {
		t.Fatalf("auto id %q collided with replay space", jv.id)
	}
}
