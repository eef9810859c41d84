package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeCoordinator answers job submissions after submitDelay with 202 (or
// 429 for refused ids) and reports a job done doneAfter after it was
// submitted. It records when each job was polled.
type fakeCoordinator struct {
	submitDelay, doneAfter time.Duration
	refuse                 string

	mu        sync.Mutex
	submitted map[string]time.Time
	polls     map[string][]time.Time
}

func newFakeCoordinator(submitDelay, doneAfter time.Duration) *fakeCoordinator {
	return &fakeCoordinator{submitDelay: submitDelay, doneAfter: doneAfter,
		submitted: map[string]time.Time{}, polls: map[string][]time.Time{}}
}

func (f *fakeCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		var spec struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		time.Sleep(f.submitDelay)
		if spec.ID == f.refuse {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		f.mu.Lock()
		f.submitted[spec.ID] = time.Now()
		f.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"id":%q}`, spec.ID)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		f.mu.Lock()
		f.polls[id] = append(f.polls[id], time.Now())
		at, ok := f.submitted[id]
		f.mu.Unlock()
		status := "queued"
		if !ok {
			http.NotFound(w, r)
			return
		}
		if time.Since(at) >= f.doneAfter {
			status = "done"
		}
		fmt.Fprintf(w, `{"status":%q}`, status)
	default:
		http.NotFound(w, r)
	}
}

func testJobs(i int) (string, []byte) {
	id := fmt.Sprintf("j%d", i)
	return id, jobBody(id, 0.3)
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	fc := newFakeCoordinator(20*time.Millisecond, 0)
	ts := httptest.NewServer(fc)
	defer ts.Close()
	g := newOpenLoop(ts.URL, "/v1/jobs", 1)
	defer g.close()

	// Three jobs due at once through one connection: the later ones wait
	// for it, and that wait is theirs.
	rs := g.run([]time.Duration{0, 0, 0}, testJobs)
	var late float64
	for _, r := range rs {
		if r.err != nil {
			t.Fatalf("%s: %v", r.id, r.err)
		}
		if r.submitMs < 20 {
			t.Errorf("%s: submission took %.1f ms, the server holds it 20 ms", r.id, r.submitMs)
		}
		if r.latencyMs < r.lateMs+r.submitMs {
			t.Errorf("%s: latency %.1f ms excludes lateness %.1f ms + submission %.1f ms", r.id, r.latencyMs, r.lateMs, r.submitMs)
		}
		late = max(late, r.lateMs)
	}
	if late < 35 {
		t.Errorf("largest lateness %.1f ms; the third submission cannot start before 40 ms", late)
	}
}

func TestOpenLoopPollsAtMostEvery5ms(t *testing.T) {
	fc := newFakeCoordinator(0, 40*time.Millisecond)
	ts := httptest.NewServer(fc)
	defer ts.Close()
	g := newOpenLoop(ts.URL, "/v1/jobs", 2)
	defer g.close()

	rs := g.run([]time.Duration{0}, testJobs)
	if rs[0].err != nil {
		t.Fatal(rs[0].err)
	}
	if rs[0].latencyMs < 40 {
		t.Errorf("latency %.1f ms, but the job is done only 40 ms after submission", rs[0].latencyMs)
	}
	fc.mu.Lock()
	polls := fc.polls["j0"]
	fc.mu.Unlock()
	if len(polls) < 2 || len(polls) > 40/5+2 {
		t.Errorf("%d polls for a job done after 40 ms", len(polls))
	}
	for i := 1; i < len(polls); i++ {
		if gap := polls[i].Sub(polls[i-1]); gap < 4500*time.Microsecond {
			t.Errorf("polls %d and %d only %v apart", i-1, i, gap)
		}
	}
	if len(rs[0].pollMs) != len(polls) {
		t.Errorf("recorded %d poll times for %d polls", len(rs[0].pollMs), len(polls))
	}
}

func TestOpenLoopRecordsRefusal(t *testing.T) {
	fc := newFakeCoordinator(0, 0)
	fc.refuse = "j1"
	ts := httptest.NewServer(fc)
	defer ts.Close()
	g := newOpenLoop(ts.URL, "/v1/jobs", 2)
	defer g.close()

	rs := g.run([]time.Duration{0, time.Millisecond}, testJobs)
	if rs[0].err != nil {
		t.Errorf("j0: %v", rs[0].err)
	}
	if rs[1].err == nil || !strings.Contains(rs[1].err.Error(), "429") {
		t.Errorf("j1: refused submission gave error %v", rs[1].err)
	}
}

func TestMaxSustainedRate(t *testing.T) {
	step := func(rate float64, drain time.Duration, lat ...float64) stepResult {
		s := stepResult{rate: rate, drain: drain}
		for _, l := range lat {
			s.jobs = append(s.jobs, jobResult{latencyMs: l})
		}
		return s
	}
	ok := func(rate float64) stepResult { return step(rate, 0, 20, 30, 40) }
	failed := ok(50)
	failed.jobs[1].err = fmt.Errorf("refused")
	for _, c := range []struct {
		name  string
		steps []stepResult
		want  float64
	}{
		{"all sustained", []stepResult{ok(25), ok(50), ok(75)}, 75},
		{"slow tail", []stepResult{ok(25), step(50, 0, 20, 30, 101), ok(75)}, 25},
		{"p95 at the limit", []stepResult{step(25, 0, 100, 100)}, 25},
		{"slow drain", []stepResult{ok(25), ok(50), step(75, 1001*time.Millisecond, 20)}, 50},
		{"failed job", []stepResult{ok(25), failed, ok(75)}, 25},
		{"first not sustained", []stepResult{step(25, 0, 500), ok(50)}, 0},
	} {
		if got := maxSustainedRate(c.steps); got != c.want {
			t.Errorf("%s: %g jobs/s, want %g", c.name, got, c.want)
		}
	}
}

func TestArrivalsRepeatPerSeed(t *testing.T) {
	const n, window = 200, time.Second
	a, b := arrivals(7, n, window), arrivals(7, n, window)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave different arrivals")
	}
	if slices.Equal(a, arrivals(8, n, window)) {
		t.Error("seeds 7 and 8 gave the same arrivals")
	}
	if len(a) != n || !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= window {
		t.Errorf("arrivals not %d sorted offsets in [0, %v): first %v last %v", n, window, a[0], a[n-1])
	}
}
