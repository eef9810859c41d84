package cluster_test

// End-to-end cluster tests: a real Coordinator and real serve.Server
// workers wired through httptest listeners — the same HTTP surface
// production uses, minus the sockets' port numbers. The external test
// package lets these tests import internal/serve without giving the
// cluster package itself a serve dependency.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/serve"
)

// testCluster is a coordinator plus its in-process workers.
type testCluster struct {
	coord   *cluster.Coordinator
	coordTS *httptest.Server
	workers map[string]*testWorker
}

type testWorker struct {
	srv *serve.Server
	ts  *httptest.Server
	hb  *cluster.Heartbeater
}

// kill simulates a worker crash: the heartbeat dies with the process,
// then the listener drops.
func (w *testWorker) kill() {
	w.hb.Stop()
	w.ts.Close()
}

type clusterOptions struct {
	workers      int              // workers per daemon
	queue        int              // daemon queue capacity
	dispatchers  int              // coordinator dispatch loops
	now          func() time.Time // injectable clock for daemons
	coordNow     func() time.Time // injectable clock for the coordinator
	quota        cluster.QuotaConfig
	pollInterval time.Duration
	ttl          time.Duration // worker heartbeat TTL (0 = production default)

	// chaos / robustness knobs (zero values keep the legacy behavior)
	client     *http.Client // coordinator control-plane client (chaos transport)
	seed       uint64
	maxRetries int
	backoffCap time.Duration
	breaker    cluster.BreakerConfig
	grace      time.Duration // coordinator DeadlineGrace (0: default)
	journal    *cluster.Journal
	replay     []cluster.JournalRecord

	// observability taps (nil keeps the silent path)
	log     *eventlog.Logger
	flightW io.Writer
}

// startCluster boots a coordinator and n named workers (w1..wn), each
// registered through the real POST /register path.
func startCluster(t testing.TB, n int, o clusterOptions) *testCluster {
	t.Helper()
	if o.workers <= 0 {
		o.workers = 1
	}
	if o.queue <= 0 {
		o.queue = 64
	}
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Now:           o.coordNow,
		Dispatchers:   o.dispatchers,
		Quota:         o.quota,
		PollInterval:  o.pollInterval,
		TTL:           o.ttl,
		BackoffBase:   10 * time.Millisecond,
		Client:        o.client,
		Seed:          o.seed,
		MaxRetries:    o.maxRetries,
		BackoffCap:    o.backoffCap,
		Breaker:       o.breaker,
		DeadlineGrace: o.grace,
		Journal:       o.journal,
		Replay:        o.replay,
		Log:           o.log,
		FlightW:       o.flightW,
	})
	coordTS := httptest.NewServer(coord.Handler())
	t.Cleanup(coordTS.Close)
	t.Cleanup(coord.Close)

	tc := &testCluster{coord: coord, coordTS: coordTS, workers: map[string]*testWorker{}}
	for i := 1; i <= n; i++ {
		tc.addWorker(t, fmt.Sprintf("w%d", i), o)
	}
	return tc
}

func (tc *testCluster) addWorker(t testing.TB, name string, o clusterOptions) *testWorker {
	t.Helper()
	srv := serve.NewServer(serve.Options{
		Workers: o.workers, QueueCap: o.queue, TraceCap: 128,
		Level: eventlog.Info, Now: o.now,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Drain)
	// The real heartbeat loop, fast: it is the mechanism that re-admits a
	// worker a dispatcher wrongly marked dead on a transient transport
	// error, so the harness must run it like production does.
	hb := &cluster.Heartbeater{
		Coordinator: tc.coordTS.URL, ID: name, URL: ts.URL,
		Interval: 100 * time.Millisecond,
	}
	if err := hb.Start(); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	t.Cleanup(hb.Stop)
	w := &testWorker{srv: srv, ts: ts, hb: hb}
	tc.workers[name] = w
	return w
}

func (tc *testCluster) submit(t *testing.T, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(tc.coordTS.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func (tc *testCluster) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(tc.coordTS.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitJob polls the coordinator until the job is terminal and returns
// the terminal body (the worker's report for done/failed jobs).
func (tc *testCluster) waitJob(t *testing.T, id string, timeout time.Duration) (status, body string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		code, b := tc.get(t, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d %s", id, code, b)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal([]byte(b), &v); err != nil {
			t.Fatalf("job view not JSON: %v: %s", err, b)
		}
		if v.Status == "done" || v.Status == "failed" {
			return v.Status, b
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return "", ""
}

// shardedIDs picks job ids whose ring owners cover every worker, using
// the same ring construction the registry uses — so the test provably
// exercises every shard rather than hoping a random spread does.
func shardedIDs(workers []string, perWorker int) []string {
	ring := cluster.NewRing(0)
	for _, w := range workers {
		ring.Add(w)
	}
	got := map[string]int{}
	var ids []string
	for i := 0; len(ids) < perWorker*len(workers); i++ {
		id := fmt.Sprintf("shard-job-%d", i)
		owner, _ := ring.OwnerOf(id)
		if got[owner] < perWorker {
			got[owner]++
			ids = append(ids, id)
		}
	}
	return ids
}

// TestClusterEndToEnd: an acoustic job lands on every shard of a
// 3-worker cluster, every job completes, the coordinator's job listing
// holds them in submission order, and each worker really executed its
// share (verified against the workers' own run tables).
func TestClusterEndToEnd(t *testing.T) {
	tc := startCluster(t, 3, clusterOptions{workers: 2, dispatchers: 8})
	ids := shardedIDs([]string{"w1", "w2", "w3"}, 2)

	// Distinct step counts keep the specs content-distinct: otherwise the
	// coordinator's result cache would serve later jobs without ever
	// touching their shard's worker.
	for i, id := range ids {
		code, body := tc.submit(t, fmt.Sprintf(`{"equation":"acoustic","steps":%d,"id":%q}`, 2+i, id))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}
	for _, id := range ids {
		status, body := tc.waitJob(t, id, 30*time.Second)
		if status != "done" {
			t.Fatalf("job %s: %s %s", id, status, body)
		}
		// Terminal jobs return the worker's full run view with the report.
		if !strings.Contains(body, `"fault_report"`) {
			t.Fatalf("terminal job %s body lacks report: %s", id, body)
		}
	}

	// Every worker executed at least one run.
	for name, w := range tc.workers {
		resp, err := http.Get(w.ts.URL + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		var runs []serve.RunView
		if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(runs) == 0 {
			t.Fatalf("worker %s executed no runs", name)
		}
		for _, r := range runs {
			if r.Status != "done" {
				t.Fatalf("worker %s run %s: %s", name, r.ID, r.Status)
			}
		}
	}

	// The listing is in submission order.
	_, body := tc.get(t, "/v1/jobs")
	var views []cluster.JobView
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatal(err)
	}
	if len(views) != len(ids) {
		t.Fatalf("listing has %d jobs, want %d", len(views), len(ids))
	}
	for i, v := range views {
		if v.ID != ids[i] {
			t.Fatalf("listing order: %v", views)
		}
	}
}

// TestClusterIdempotentResubmit: resubmitting a finished job's id
// returns the cached report byte-for-byte — twice — and never reruns
// the job. A content-identical spec under a new id is served from the
// content-addressed cache without touching a worker.
func TestClusterIdempotentResubmit(t *testing.T) {
	tc := startCluster(t, 3, clusterOptions{workers: 1, dispatchers: 4})
	spec := `{"equation":"acoustic","steps":3,"id":"idem-1","faults":"seed=4,flip=1e-5,stuck=1e-6"}`

	code, body := tc.submit(t, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	status, report := tc.waitJob(t, "idem-1", 30*time.Second)
	if status != "done" {
		t.Fatalf("job: %s %s", status, report)
	}

	runsBefore := tc.totalRuns(t)
	code1, body1 := tc.submit(t, spec)
	code2, body2 := tc.submit(t, spec)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("resubmit codes: %d %d", code1, code2)
	}
	if body1 != body2 {
		t.Fatalf("resubmission not byte-identical:\n%s\nvs\n%s", body1, body2)
	}
	if body1 != report {
		t.Fatalf("resubmission diverges from the job's report:\n%s\nvs\n%s", body1, report)
	}

	// Same spec, different id: the content cache answers, no dispatch.
	code3, body3 := tc.submit(t, strings.Replace(spec, "idem-1", "idem-2", 1))
	if code3 != http.StatusOK {
		t.Fatalf("content-cache submit: %d %s", code3, body3)
	}
	if body3 != report {
		t.Fatalf("content-cache report diverges:\n%s\nvs\n%s", body3, report)
	}
	_, view := tc.get(t, "/v1/jobs")
	if !strings.Contains(view, `"cached":true`) {
		t.Fatalf("listing shows no cached job: %s", view)
	}
	if after := tc.totalRuns(t); after != runsBefore {
		t.Fatalf("resubmissions touched workers: %d runs -> %d", runsBefore, after)
	}
}

// totalRuns sums the runs across every live worker.
func (tc *testCluster) totalRuns(t *testing.T) int {
	t.Helper()
	total := 0
	for _, w := range tc.workers {
		resp, err := http.Get(w.ts.URL + "/v1/runs")
		if err != nil {
			continue // killed workers don't count
		}
		var runs []serve.RunView
		json.NewDecoder(resp.Body).Decode(&runs)
		resp.Body.Close()
		total += len(runs)
	}
	return total
}

// TestClusterWorkerDeathRebalances: killing a worker mid-flight loses no
// accepted job — its keys rebalance to the survivors and every job still
// reaches "done".
func TestClusterWorkerDeathRebalances(t *testing.T) {
	// Short TTL (still 5× the 100ms heartbeat) so membership eviction is
	// observable without the 10s production default: the victim leaves
	// either via MarkDead (a dispatcher touched its corpse) or via TTL
	// expiry (all its jobs happened to finish before the kill landed).
	tc := startCluster(t, 3, clusterOptions{
		workers: 1, queue: 64, dispatchers: 8, ttl: 500 * time.Millisecond,
	})

	// Enough jobs that the victim certainly owns some, slow enough that
	// they cannot all finish before the kill. Per-job CFL values keep the
	// specs content-distinct so the result cache can't absorb any of them.
	var ids []string
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("kill-job-%d", i)
		ids = append(ids, id)
		code, body := tc.submit(t, fmt.Sprintf(
			`{"equation":"acoustic","steps":25,"cfl":%g,"id":%q}`, 0.25+0.001*float64(i), id))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}

	// Kill w2 the moment it has work in flight.
	victim := tc.workers["w2"]
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(victim.ts.URL + "/v1/runs")
		if err != nil {
			t.Fatal(err)
		}
		var runs []serve.RunView
		json.NewDecoder(resp.Body).Decode(&runs)
		resp.Body.Close()
		if len(runs) > 0 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	victim.kill()

	for _, id := range ids {
		status, body := tc.waitJob(t, id, 60*time.Second)
		if status != "done" {
			t.Fatalf("job %s dropped by the kill: %s %s", id, status, body)
		}
	}

	// The victim leaves the membership — by MarkDead if a dispatcher hit
	// its closed listener, otherwise by TTL expiry once its heartbeats
	// stop. Either way it must be gone well within a few TTLs.
	evictBy := time.Now().Add(5 * time.Second)
	for {
		_, body := tc.get(t, "/v1/workers")
		if !strings.Contains(body, `"id":"w2"`) {
			break
		}
		if time.Now().After(evictBy) {
			t.Fatalf("dead worker still a member: %s", body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterAggregatedMetrics: the coordinator's /metrics merges its
// own families with every worker's, relabeled per worker, and two
// scrapes of a quiet cluster are byte-identical.
func TestClusterAggregatedMetrics(t *testing.T) {
	tc := startCluster(t, 3, clusterOptions{workers: 1, dispatchers: 4})
	code, body := tc.submit(t, `{"equation":"acoustic","steps":2,"id":"metrics-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	tc.waitJob(t, "metrics-1", 30*time.Second)

	code, m1 := tc.get(t, "/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	_, m2 := tc.get(t, "/v1/metrics")
	if m1 != m2 {
		t.Fatalf("quiet-cluster scrapes differ:\n%s\nvs\n%s", m1, m2)
	}
	for _, want := range []string{
		`wavepimctl_jobs_total{status="done"} 1`,
		"wavepimctl_workers 3",
		`worker="w1"`,
		`worker="w2"`,
		`worker="w3"`,
		"# TYPE sim_fault_rung_events_total counter",
		// robustness families: retry backoff histogram, journal gauge, and
		// the breaker state of the worker that took the job
		"# TYPE wavepimctl_retry_backoff_seconds histogram",
		"wavepimctl_journal_records 0",
		"wavepimctl_jobs_evicted_total 0",
		"# TYPE wavepimctl_breaker_state gauge",
		// the latency decomposition: four stage histograms labeled
		// (priority, outcome), pre-registered so a quiet scrape already
		// exposes every child in sorted order, plus the per-class queue
		// gauges
		"# TYPE wavepimctl_job_queue_seconds histogram",
		"# TYPE wavepimctl_dispatch_seconds histogram",
		"# TYPE wavepimctl_exec_seconds histogram",
		"# TYPE wavepimctl_e2e_seconds histogram",
		`wavepimctl_e2e_seconds_count{outcome="done",priority="normal"} 1`,
		`wavepimctl_queue_depth{priority="high"} 0`,
		`# TYPE wavepimctl_queue_age_seconds gauge`,
	} {
		if !strings.Contains(m1, want) {
			t.Fatalf("aggregated metrics missing %q:\n%s", want, m1)
		}
	}
	// Exactly one TYPE header per family across the whole merge.
	seen := map[string]bool{}
	for _, line := range strings.Split(m1, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("duplicate TYPE %s in merged exposition", name)
			}
			seen[name] = true
		}
	}
}

// fixedClock returns a frozen injectable clock.
func fixedClock() func() time.Time {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	return func() time.Time { return at }
}

// goldenStream boots a fresh single-worker cluster with a frozen clock,
// runs the fixed spec, and returns the job's full SSE stream as proxied
// by the coordinator.
func goldenStream(t *testing.T) string {
	t.Helper()
	tc := startCluster(t, 1, clusterOptions{workers: 1, dispatchers: 2, now: fixedClock()})
	code, body := tc.submit(t, `{"equation":"acoustic","steps":4,"id":"golden-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if status, b := tc.waitJob(t, "golden-1", 30*time.Second); status != "done" {
		t.Fatalf("golden job: %s %s", status, b)
	}
	resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/golden-1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestClusterGoldenSSEStream: two completely independent replays of the
// same fixed-seed, fixed-clock run — fresh coordinator, fresh worker,
// fresh everything — produce byte-identical SSE streams through the
// coordinator proxy. This pins the whole pipeline: deterministic engine
// progress events, injectable event-log clock, tap replay, SSE framing,
// and the proxy's pass-through.
func TestClusterGoldenSSEStream(t *testing.T) {
	a := goldenStream(t)
	b := goldenStream(t)
	if a != b {
		t.Fatalf("golden SSE replays diverge:\n%q\nvs\n%q", a, b)
	}
	for _, want := range []string{
		"id: 0\n",
		"event: run.start\n",
		"event: run.progress\n",
		"event: run.end\n",
		`"step":4`,
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("golden stream missing %q:\n%s", want, a)
		}
	}
	// The frozen clock really governs the stream's timestamps.
	if !strings.Contains(a, "2026-01-02T03:04:05") {
		t.Fatalf("stream timestamps ignore the injected clock:\n%s", a)
	}
}

// goldenTrace boots a fresh single-worker cluster with BOTH clocks
// frozen — the coordinator's span timeline and the worker's tracer read
// the same fixed instant — runs the fixed spec, and returns the merged
// cluster-level Chrome trace plus the terminal job table.
func goldenTrace(t *testing.T) (doc, table string) {
	t.Helper()
	tc := startCluster(t, 1, clusterOptions{
		workers: 1, dispatchers: 2, now: fixedClock(), coordNow: fixedClock(),
	})
	code, body := tc.submit(t, `{"equation":"acoustic","steps":4,"id":"golden-trace-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if status, b := tc.waitJob(t, "golden-trace-1", 30*time.Second); status != "done" {
		t.Fatalf("golden job: %s %s", status, b)
	}
	code, doc = tc.get(t, "/v1/jobs/golden-trace-1/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: %d %s", code, doc)
	}
	_, table = tc.get(t, "/v1/jobs")
	return doc, table
}

// TestClusterGoldenMergedTrace: two completely independent fixed-clock
// cluster stacks — fresh coordinator, fresh worker, fresh everything —
// serve byte-identical merged traces for the same job. This pins the
// whole tracing pipeline: hash-derived span ids, the coordinator's span
// timeline, header propagation, the worker's own trace, and the merge's
// canonical encoding.
func TestClusterGoldenMergedTrace(t *testing.T) {
	a, view := goldenTrace(t)
	b, _ := goldenTrace(t)
	if a != b {
		t.Fatalf("golden merged traces diverge:\n%s\nvs\n%s", a, b)
	}
	// One document, both processes, every coordinator stage.
	for _, want := range []string{
		`"name": "wavepimctl"`,
		`"name": "wavepimd:w1"`,
		`"name": "job"`,
		`"name": "admission"`,
		`"name": "queue"`,
		`"name": "dispatch"`,
		`"name": "exec"`,
		`"name": "report"`,
		`"annot": "done"`,
		`"annot": "worker:w1"`,
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("merged trace missing %q:\n%s", want, a)
		}
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(a), &doc); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 8 {
		t.Fatalf("merged trace has only %d events", len(doc.TraceEvents))
	}
	// The terminal job view exposes the same decomposition the trace
	// records (zero-duration under the frozen clock, but present).
	if !strings.Contains(view, `"stages"`) || !strings.Contains(view, `"e2e_sec"`) {
		t.Fatalf("job view lacks latency decomposition: %s", view)
	}
}

// TestClusterQuotaRejection: a tenant over its queue quota gets 429
// while other tenants keep flowing.
func TestClusterQuotaRejection(t *testing.T) {
	tc := startCluster(t, 1, clusterOptions{
		workers: 1, dispatchers: 1,
		quota: cluster.QuotaConfig{MaxQueued: 2, MaxActive: 1},
	})
	// Slow, content-distinct jobs so the queue actually fills (identical
	// specs would be absorbed by the result cache once one finishes).
	var saw429 bool
	for i := 0; i < 8; i++ {
		code, body := tc.submit(t,
			fmt.Sprintf(`{"equation":"acoustic","steps":40,"cfl":%g,"id":"quota-%d","tenant":"hog"}`,
				0.25+0.001*float64(i), i))
		switch code {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429 = true
			if !strings.Contains(body, "quota") {
				t.Fatalf("429 body: %s", body)
			}
		default:
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
	}
	if !saw429 {
		t.Fatal("hog tenant never hit its quota")
	}
	// Another tenant still gets in.
	code, body := tc.submit(t, `{"equation":"acoustic","steps":2,"id":"polite-1","tenant":"polite"}`)
	if code != http.StatusAccepted {
		t.Fatalf("polite tenant rejected: %d %s", code, body)
	}
}
