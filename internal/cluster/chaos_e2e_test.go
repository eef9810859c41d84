package cluster_test

// Chaos end-to-end: the seeded fault-injecting transport wired into a
// real coordinator + worker cluster. The core claim under test is
// DETERMINISM: because every injection decision is a pure hash of
// (seed, route, attempt) — never of wall-clock time — two completely
// independent runs of the same seeded schedule finish with
// byte-identical job tables, retries, breaker trips and all. That is
// what makes a chaos failure reproducible from its seed alone.
//
// The scenarios run a single worker so ring ownership cannot depend on
// re-registration timing, and they confine injection to the dispatch
// POSTs ("Only: POST /v1/runs"): status-poll counts are inherently
// timing-dependent, so faulting them would make per-job attempt counts
// racy. Dispatch attempts are route-sequenced and are not.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/cluster/chaos"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/serve"
)

// chaosScenario is one seeded fault schedule.
type chaosScenario struct {
	name       string
	cfg        chaos.Config
	maxRetries int    // 0: default (generous)
	partition  bool   // partition the (single) worker for the whole run
	wantFailed bool   // every job must exhaust its budget
	poison     string // a spec submitted among the jobs that must be refused with 400
}

// runChaosSchedule boots a fresh single-worker cluster behind the given
// chaos config, submits a fixed set of content-distinct jobs, waits for
// every one to reach a terminal state, and returns the final job table
// bytes plus the injection tallies.
func runChaosSchedule(t *testing.T, sc chaosScenario) (string, chaos.Counts) {
	t.Helper()
	tr := chaos.New(sc.cfg)
	tc := startCluster(t, 1, clusterOptions{
		workers: 2, dispatchers: 4,
		client:     tr.Client(30 * time.Second),
		seed:       sc.cfg.Seed,
		maxRetries: sc.maxRetries,
		backoffCap: 50 * time.Millisecond,
		breaker:    cluster.BreakerConfig{Threshold: 3, Probe: 20 * time.Millisecond},
	})
	if sc.partition {
		host := strings.TrimPrefix(tc.workers["w1"].ts.URL, "http://")
		tr.Partition(host)
	}

	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("chaos-%d", i)
		ids = append(ids, id)
		code, body := tc.submit(t, fmt.Sprintf(`{"equation":"acoustic","steps":%d,"id":%q}`, 2+i, id))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
		if sc.poison != "" && i == 2 {
			if code, body := tc.submit(t, sc.poison); code != http.StatusBadRequest ||
				!strings.Contains(body, cluster.CodeBadRequest) {
				t.Fatalf("poison %s: %d %s, want 400 bad_request", sc.poison, code, body)
			}
		}
	}
	for _, id := range ids {
		status, body := tc.waitJob(t, id, 60*time.Second)
		if sc.wantFailed && status != "failed" {
			t.Fatalf("job %s survived a full partition: %s %s", id, status, body)
		}
		if !sc.wantFailed && status != "done" {
			t.Fatalf("job %s: %s %s", id, status, body)
		}
	}
	code, table := tc.get(t, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("jobs table: %d", code)
	}
	if sc.poison != "" {
		// The poison never reached the worker, and the worker is still a
		// member: nothing marked it down.
		if n := tc.totalRuns(t); n != len(ids) {
			t.Fatalf("worker ran %d jobs, want the %d good ones", n, len(ids))
		}
		if ws := tc.coord.Registry().Workers(); len(ws) != 1 || ws[0].ID != "w1" {
			t.Fatalf("workers after the poison: %+v", ws)
		}
	}
	return normalizeStages(t, table), tr.Counts()
}

// TestChaosPoisonJob: under a seeded fault schedule, a poison spec
// submitted among good jobs is refused with 400 before admission, and
// the good jobs' table is byte-identical to the same seeded run without
// it: the same owners, attempts, statuses and digests.
func TestChaosPoisonJob(t *testing.T) {
	sc := chaosScenario{name: "flap_503", cfg: chaos.Config{Seed: 13, ErrProb: 0.5, Only: "POST /v1/runs"}}
	clean, _ := runChaosSchedule(t, sc)
	for _, poison := range []string{
		`{"equation":"acoustic","refine":11}`,
		`{"equation":"acoustic","np":1,"id":"poison-1"}`,
	} {
		sc.poison = poison
		if got, _ := runChaosSchedule(t, sc); got != clean {
			t.Fatalf("poison %s changed the good jobs' table:\n%s\nvs\n%s", poison, got, clean)
		}
	}
}

// normalizeStages zeroes the latency decomposition in a job table before
// byte-comparison: stage durations measure real elapsed wall time and
// legitimately differ between two runs of the same seeded schedule,
// while every other field (ids, statuses, attempts, digests, trace ids)
// is deterministic.
func normalizeStages(t *testing.T, table string) string {
	t.Helper()
	var views []cluster.JobView
	if err := json.Unmarshal([]byte(table), &views); err != nil {
		t.Fatalf("job table: %v: %s", err, table)
	}
	for i := range views {
		views[i].Stages = cluster.StageSeconds{}
	}
	b, err := json.Marshal(views)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestChaosSchedulesDeterministic: for each fault flavor, two fully
// independent cluster runs under the same seed end with byte-identical
// job tables — and the schedule really injected faults (the run is not
// vacuously clean).
func TestChaosSchedulesDeterministic(t *testing.T) {
	scenarios := []chaosScenario{
		{name: "drop", cfg: chaos.Config{Seed: 11, DropProb: 0.4, Only: "POST /v1/runs"}},
		{name: "delay_drop", cfg: chaos.Config{Seed: 12, DropProb: 0.3, DelayProb: 0.5,
			Delay: time.Millisecond, Only: "POST /v1/runs"}},
		{name: "flap_503", cfg: chaos.Config{Seed: 13, ErrProb: 0.5, Only: "POST /v1/runs"}},
		{name: "truncate", cfg: chaos.Config{Seed: 14, TruncateProb: 0.6, DropProb: 0.2,
			Only: "POST /v1/runs"}},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			tableA, countsA := runChaosSchedule(t, sc)
			tableB, countsB := runChaosSchedule(t, sc)
			if tableA != tableB {
				t.Fatalf("same seed, divergent job tables:\n%s\nvs\n%s", tableA, tableB)
			}
			injectedA := countsA.Drops + countsA.Errors + countsA.Truncates
			injectedB := countsB.Drops + countsB.Errors + countsB.Truncates
			if injectedA == 0 {
				t.Fatalf("schedule injected nothing (counts %+v) — vacuous determinism", countsA)
			}
			if injectedA != injectedB {
				t.Fatalf("injection tallies diverge: %+v vs %+v", countsA, countsB)
			}
			// Retries really happened and are visible in the table.
			if !strings.Contains(tableA, `"attempts":`) {
				t.Fatalf("job table lacks attempts: %s", tableA)
			}
		})
	}
}

// TestChaosGoldenTable: gated by CHAOS_TABLE_OUT — runs one fixed
// seeded chaos schedule and writes the final job table to the named
// file. scripts/cluster_chaos_guard.sh invokes it in two SEPARATE test
// processes and byte-diffs the files: determinism across independent
// processes, not just goroutines.
func TestChaosGoldenTable(t *testing.T) {
	out := os.Getenv("CHAOS_TABLE_OUT")
	if out == "" {
		t.Skip("set CHAOS_TABLE_OUT to run the golden chaos table")
	}
	table, counts := runChaosSchedule(t, chaosScenario{
		name: "golden",
		cfg: chaos.Config{Seed: 20, DropProb: 0.35, ErrProb: 0.25,
			TruncateProb: 0.2, Only: "POST /v1/runs"},
	})
	if counts.Drops+counts.Errors+counts.Truncates == 0 {
		t.Fatalf("golden schedule injected nothing: %+v", counts)
	}
	if err := os.WriteFile(out, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosTraceSpans: under a seeded fault schedule that forces real
// retries, the merged trace of a retried job carries the retry attempt
// spans with their typed annotations, every coordinator span nests
// inside the root job span, and no ephemeral worker host leaks into the
// document.
func TestChaosTraceSpans(t *testing.T) {
	tr := chaos.New(chaos.Config{Seed: 13, ErrProb: 0.5, Only: "POST /v1/runs"})
	tc := startCluster(t, 1, clusterOptions{
		workers: 2, dispatchers: 4,
		client:     tr.Client(30 * time.Second),
		seed:       13,
		backoffCap: 50 * time.Millisecond,
		breaker:    cluster.BreakerConfig{Threshold: 3, Probe: 20 * time.Millisecond},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("chaos-trace-%d", i)
		ids = append(ids, id)
		code, body := tc.submit(t, fmt.Sprintf(`{"equation":"acoustic","steps":%d,"id":%q}`, 2+i, id))
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}
	for _, id := range ids {
		if status, body := tc.waitJob(t, id, 60*time.Second); status != "done" {
			t.Fatalf("job %s: %s %s", id, status, body)
		}
	}
	_, table := tc.get(t, "/v1/jobs")
	var views []cluster.JobView
	if err := json.Unmarshal([]byte(table), &views); err != nil {
		t.Fatal(err)
	}
	var retried string
	for _, v := range views {
		if v.Attempts > 0 {
			retried = v.ID
			break
		}
	}
	if retried == "" {
		t.Fatalf("schedule produced no retried job — vacuous: %s", table)
	}
	code, doc := tc.get(t, "/v1/jobs/"+retried+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace %s: %d %s", retried, code, doc)
	}
	// Retry mechanics are visible: a second dispatch attempt, its typed
	// retry annotation, and the backoff wait between attempts.
	for _, want := range []string{`"name": "dispatch#1"`, `"annot": "retry: `, `"name": "backoff"`} {
		if !strings.Contains(doc, want) {
			t.Fatalf("retried job's trace missing %q:\n%s", want, doc)
		}
	}
	// Determinism hygiene: the sanitized causes must not leak the worker's
	// ephemeral host:port into the document.
	if strings.Contains(doc, "127.0.0.1") {
		t.Fatalf("trace leaks a host: %s", doc)
	}
	// Structural nesting: every coordinator (pid 1) span sits inside the
	// root job span's [ts, ts+dur] window. Worker events live on their own
	// process timeline and are exempt.
	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(doc), &parsed); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	rootStart, rootEnd := -1.0, -1.0
	for _, ev := range parsed.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 1 && ev.Name == "job" {
			rootStart, rootEnd = ev.Ts, ev.Ts+ev.Dur
		}
	}
	if rootStart < 0 {
		t.Fatalf("trace has no root job span: %s", doc)
	}
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" || ev.Pid != 1 {
			continue
		}
		if ev.Dur < 0 || ev.Ts < rootStart || ev.Ts+ev.Dur > rootEnd+1 { // +1µs: rounding slack
			t.Fatalf("span %s [%f, %f] escapes the root window [%f, %f]",
				ev.Name, ev.Ts, ev.Ts+ev.Dur, rootStart, rootEnd)
		}
	}
}

// TestChaosPartitionExhaustsBudget: a fully partitioned worker bleeds
// every job's retry budget dry — each terminates as failed with the
// typed retries-exhausted error, exactly maxRetries attempts, and the
// outcome is byte-identical across two runs of the seed.
func TestChaosPartitionExhaustsBudget(t *testing.T) {
	sc := chaosScenario{
		name:       "partition",
		cfg:        chaos.Config{Seed: 15, Only: "POST /v1/runs"},
		maxRetries: 4,
		partition:  true,
		wantFailed: true,
	}
	tableA, countsA := runChaosSchedule(t, sc)
	tableB, _ := runChaosSchedule(t, sc)
	if tableA != tableB {
		t.Fatalf("partitioned runs diverge:\n%s\nvs\n%s", tableA, tableB)
	}
	if countsA.Partitions == 0 {
		t.Fatal("partition never fired")
	}
	var views []cluster.JobView
	if err := json.Unmarshal([]byte(tableA), &views); err != nil {
		t.Fatal(err)
	}
	for _, v := range views {
		if v.Status != "failed" || v.Attempts != 4 {
			t.Fatalf("job %s: %+v (want failed after 4 attempts)", v.ID, v)
		}
		if !strings.Contains(v.Error, "retries exhausted after 4 attempts") ||
			!strings.Contains(v.Error, "chaos: partition") {
			t.Fatalf("job %s error %q", v.ID, v.Error)
		}
		// Determinism hygiene: no ephemeral port may leak into the table.
		if strings.Contains(v.Error, "127.0.0.1") {
			t.Fatalf("job %s error leaks a host: %q", v.ID, v.Error)
		}
	}
}

// swapHandler lets a test "restart" the coordinator behind a stable URL
// — workers keep heartbeating to the same address while the coordinator
// process behind it is replaced, exactly like a restart behind a VIP.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, req)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// TestJournalCrashRestartLosesNothing is the kill-and-restart e2e: a
// journaled coordinator accepts a mix of fast (finished) and slow
// (queued/mid-flight) jobs, "crashes", and a fresh coordinator replays
// the journal behind the same address. Zero accepted jobs may be lost:
// finished jobs come back with byte-identical reports, unfinished ones
// re-dispatch on their idempotent ids and run to completion.
func TestJournalCrashRestartLosesNothing(t *testing.T) {
	journalPath := t.TempDir() + "/journal.jsonl"
	j1, recs, err := cluster.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal: %d records", len(recs))
	}
	mkCoord := func(j *cluster.Journal, replay []cluster.JournalRecord) *cluster.Coordinator {
		return cluster.NewCoordinator(cluster.CoordinatorOptions{
			Dispatchers: 4, BackoffBase: 5 * time.Millisecond, TTL: time.Minute,
			Journal: j, Replay: replay,
		})
	}
	coord1 := mkCoord(j1, nil)
	sh := &swapHandler{h: coord1.Handler()}
	ts := httptest.NewServer(sh)
	t.Cleanup(ts.Close)

	// Two real workers heartbeating at the stable address.
	for i := 1; i <= 2; i++ {
		srv := serve.NewServer(serve.Options{Workers: 2, QueueCap: 64, TraceCap: 64, Level: eventlog.Info})
		wts := httptest.NewServer(srv.Handler())
		t.Cleanup(wts.Close)
		t.Cleanup(srv.Drain)
		hb := &cluster.Heartbeater{
			Coordinator: ts.URL, ID: fmt.Sprintf("w%d", i), URL: wts.URL,
			Interval: 50 * time.Millisecond,
		}
		if err := hb.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(hb.Stop)
	}

	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}
	waitDone := func(id string, timeout time.Duration) string {
		deadline := time.Now().Add(timeout)
		for time.Now().Before(deadline) {
			code, body := get("/v1/jobs/" + id)
			if code != http.StatusOK {
				t.Fatalf("GET %s: %d %s", id, code, body)
			}
			var v struct {
				Status string `json:"status"`
			}
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				t.Fatalf("job %s view: %v: %s", id, err, body)
			}
			if v.Status == "done" {
				return body
			}
			if v.Status == "failed" {
				t.Fatalf("job %s failed: %s", id, body)
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("job %s never done", id)
		return ""
	}

	// Fast jobs: finished (and journaled terminal) before the crash.
	fast := []string{"fast-0", "fast-1", "fast-2"}
	for i, id := range fast {
		if code, body := post(fmt.Sprintf(`{"equation":"acoustic","steps":%d,"id":%q}`, 2+i, id)); code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}
	reports := map[string]string{}
	traces := map[string]string{}
	for _, id := range fast {
		reports[id] = waitDone(id, 30*time.Second)
		code, doc := get("/v1/jobs/" + id + "/trace")
		if code != http.StatusOK {
			t.Fatalf("trace %s: %d %s", id, code, doc)
		}
		traces[id] = doc
	}
	// Slow jobs: accepted, but still queued or mid-flight at the crash.
	slow := []string{"slow-0", "slow-1", "slow-2", "slow-3"}
	for i, id := range slow {
		if code, body := post(fmt.Sprintf(`{"equation":"acoustic","steps":30,"cfl":%g,"id":%q}`, 0.3+0.001*float64(i), id)); code != http.StatusAccepted {
			t.Fatalf("submit %s: %d %s", id, code, body)
		}
	}

	// Crash: the coordinator dies with jobs in every lifecycle stage. The
	// journal's fsynced records are all that survives.
	coord1.Close()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart behind the same address.
	j2, recs2, err := cluster.OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	coord2 := mkCoord(j2, recs2)
	t.Cleanup(func() { coord2.Close(); j2.Close() })
	sh.swap(coord2.Handler())

	// The replay accounted for every accepted job.
	st := coord2.Replay()
	if st.Restored < len(fast) {
		t.Fatalf("replay restored %d jobs, want >= %d (%+v)", st.Restored, len(fast), st)
	}
	if st.Restored+st.Requeued != len(fast)+len(slow) {
		t.Fatalf("replay lost jobs: %+v, want restored+requeued = %d", st, len(fast)+len(slow))
	}
	// /readyz reports the replay.
	if code, body := get("/v1/readyz"); code != http.StatusOK ||
		!strings.Contains(body, `"journal":true`) || !strings.Contains(body, `"requeued"`) {
		t.Fatalf("readyz after replay: %d %s", code, body)
	}
	// Finished jobs return their reports — and their merged traces, merged
	// on read from the spans and worker trace the journal carried —
	// byte-identically.
	for _, id := range fast {
		code, body := get("/v1/jobs/" + id)
		if code != http.StatusOK {
			t.Fatalf("restored %s: %d", id, code)
		}
		if body != reports[id] {
			t.Fatalf("restored report for %s diverges:\n%s\nvs\n%s", id, body, reports[id])
		}
		code, doc := get("/v1/jobs/" + id + "/trace")
		if code != http.StatusOK {
			t.Fatalf("restored trace %s: %d %s", id, code, doc)
		}
		if doc != traces[id] {
			t.Fatalf("restored trace for %s diverges from the pre-crash bytes:\n%s\nvs\n%s",
				id, doc, traces[id])
		}
	}
	// Unfinished jobs run to completion — zero accepted jobs lost.
	for _, id := range slow {
		waitDone(id, 60*time.Second)
	}
}
