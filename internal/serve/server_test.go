package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/cluster/trace"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/wavepim"
)

// testServer spins up a one-worker daemon with a tiny queue behind an
// httptest listener.
func testServer(t *testing.T, workers, queue int) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Options{Workers: workers, QueueCap: queue, TraceCap: 128, Level: eventlog.Debug})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Drain)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (int, map[string]string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Success bodies are string maps; error bodies are the APIError
	// envelope whose retryable field is a bool — keep only the strings.
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	out := make(map[string]string, len(raw))
	for k, v := range raw {
		if s, ok := v.(string); ok {
			out[k] = s
		}
	}
	return resp.StatusCode, out
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
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

// waitRun polls until the run reaches a terminal state.
func waitRun(t *testing.T, base, id string) RunView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, body := getBody(t, base+"/v1/runs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s: %d %s", id, code, body)
		}
		var v RunView
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" || v.Status == "failed" {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("run %s never finished", id)
	return RunView{}
}

// TestDaemonEndToEnd is the acceptance path: submit the canonical healing
// acoustic job, wait for it, and verify the run view, the Chrome trace,
// and the Prometheus exposition with labeled rung counters and per-phase
// span histograms.
func TestDaemonEndToEnd(t *testing.T) {
	_, ts := testServer(t, 1, 8)

	code, out := postJSON(t, ts.URL+"/v1/runs",
		`{"equation":"acoustic","steps":4,"faults":"seed=4,flip=1e-5,stuck=1e-6"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	id := out["id"]
	v := waitRun(t, ts.URL, id)
	if v.Status != "done" {
		t.Fatalf("run failed: %+v", v)
	}
	if v.Report.Counts.Detected == 0 || v.Report.Rollbacks == 0 {
		t.Fatalf("canonical healing scenario shows no ladder activity: %+v", v.Report)
	}
	if v.Equation != "Acoustic" || v.WallSec <= 0 {
		t.Fatalf("run view: %+v", v)
	}

	// The Chrome trace parses and has phase spans.
	code, trace := getBody(t, ts.URL+"/v1/runs/"+id+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace: %d", code)
	}
	var tr struct {
		TraceEvents []struct{ Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(trace), &tr); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatal("trace is empty")
	}

	// The exposition carries labeled rung counters, the MTTR histogram,
	// and per-phase span histograms.
	code, metrics := getBody(t, ts.URL+"/v1/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"# TYPE sim_fault_rung_events_total counter",
		`sim_fault_rung_events_total{rung="ecc"}`,
		`sim_fault_rung_events_total{rung="rollback"}`,
		"# TYPE sim_fault_mttr_seconds histogram",
		`sim_fault_mttr_seconds_bucket{rung="rollback",le="+Inf"}`,
		"# TYPE sim_phase_span_seconds histogram",
		`sim_phase_span_seconds_count{kind="blocks",phase="volume"}`,
		`sim_phase_span_seconds_count{kind="blocks",phase="flux-x+"}`,
		`wavepimd_runs_total{status="done"} 1`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The healing run drove real rung activity into the shared registry.
	if strings.Contains(metrics, `sim_fault_rung_events_total{rung="ecc"} 0`) {
		t.Error("ecc rung counter still zero after a healing run")
	}

	// No flight dump on a healed run.
	if code, _ := getBody(t, ts.URL+"/v1/runs/"+id+"/flight"); code != http.StatusNotFound {
		t.Fatalf("flight dump on healed run: %d", code)
	}
}

// TestDaemonFlightDump: the unrecoverable scenario surfaces a flight dump
// over HTTP with the failure reason and retained events.
func TestDaemonFlightDump(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	code, out := postJSON(t, ts.URL+"/v1/runs",
		`{"equation":"acoustic","steps":8,"faults":"seed=13,flip=5e-3","recover":"ecc=0,ckpt=2,rollbacks=1,blowup=10"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", code, out)
	}
	v := waitRun(t, ts.URL, out["id"])
	if v.Status != "failed" || v.Reason != "unrecoverable" || !v.HasDump {
		t.Fatalf("want failed+unrecoverable+dump, got %+v", v)
	}
	code, body := getBody(t, ts.URL+"/v1/runs/"+out["id"]+"/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d %s", code, body)
	}
	var dump eventlog.FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if dump.Reason != "unrecoverable" || len(dump.Events) == 0 || len(dump.Spans) == 0 {
		t.Fatalf("dump incomplete: reason=%s events=%d spans=%d",
			dump.Reason, len(dump.Events), len(dump.Spans))
	}
	var sawRunError bool
	for _, raw := range dump.Events {
		var ev map[string]any
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("dump event not JSON: %v", err)
		}
		if ev["event"] == "run.error" {
			sawRunError = true
		}
	}
	if !sawRunError {
		t.Fatal("dump events miss run.error")
	}

	// The failure is visible on the daemon counters.
	_, metrics := getBody(t, ts.URL+"/v1/metrics")
	if !strings.Contains(metrics, `wavepimd_runs_total{status="failed"} 1`) {
		t.Fatal("failed run not counted")
	}
}

// TestDaemonTraceHeaderAdoption: a submission carrying a coordinator's
// X-Wavepim-Trace header binds the run to the cluster trace — the run
// view exposes the trace id and a flight dump attributes to it — while
// a malformed header is ignored rather than rejected.
func TestDaemonTraceHeaderAdoption(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	tcx := trace.New("trace-job-1")
	spec := `{"equation":"acoustic","steps":8,"faults":"seed=13,flip=5e-3","recover":"ecc=0,ckpt=2,rollbacks=1,blowup=10"}`
	req, err := http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, tcx.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, out)
	}
	v := waitRun(t, ts.URL, out["id"])
	if v.Trace != tcx.Hex() {
		t.Fatalf("run view trace %q, want %q", v.Trace, tcx.Hex())
	}
	// The spec is the flight-dump scenario: the dump carries the trace id
	// so a worker-side artifact correlates with the cluster timeline.
	code, body := getBody(t, ts.URL+"/v1/runs/"+out["id"]+"/flight")
	if code != http.StatusOK {
		t.Fatalf("flight: %d %s", code, body)
	}
	var dump eventlog.FlightDump
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trace != tcx.Hex() {
		t.Fatalf("flight dump trace %q, want %q", dump.Trace, tcx.Hex())
	}

	// A malformed header never blocks submission; the run is untraced.
	req, err = http.NewRequest("POST", ts.URL+"/v1/runs", strings.NewReader(`{"equation":"acoustic","steps":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, "not-a-trace-context")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out = map[string]string{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("malformed-header submit: %d %v", resp.StatusCode, out)
	}
	if v := waitRun(t, ts.URL, out["id"]); v.Trace != "" {
		t.Fatalf("malformed header produced trace %q", v.Trace)
	}
}

// TestDaemonValidationAndBackpressure: bad specs are 400s, an overfull
// queue is a 503, unknown runs are 404s.
func TestDaemonValidationAndBackpressure(t *testing.T) {
	_, ts := testServer(t, 1, 1)

	if code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"warp-drive"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown equation: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/runs", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","id":"!!!"}`); code != http.StatusBadRequest {
		t.Fatalf("bad client id: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/runs", `{"faults":"seed=banana"}`); code != http.StatusBadRequest {
		// Spec strings are validated at submit, before the job is queued.
		t.Fatalf("bad fault spec: %d", code)
	}
	if code, body := getBody(t, ts.URL+"/v1/runs/r9999"); code != http.StatusNotFound {
		t.Fatalf("missing run: %d %s", code, body)
	}

	// Saturate: with a 1-deep queue and 1 worker, heavy-enough submits
	// must eventually bounce with 503 (each ~50-step job holds the worker
	// far longer than a submit round trip).
	var saw503 bool
	for i := 0; i < 8 && !saw503; i++ {
		code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":50}`)
		switch code {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			saw503 = true
		default:
			t.Fatalf("unexpected submit status %d", code)
		}
	}
	if !saw503 {
		t.Fatal("queue never pushed back")
	}
	_, metrics := getBody(t, ts.URL+"/v1/metrics")
	if !strings.Contains(metrics, `wavepimd_runs_total{status="rejected"}`) {
		t.Fatal("rejected submits not counted")
	}
}

// TestExecuteRecoversPanic: a spec forced past validation into execute
// (refine 11, which mesh.New rejects with a panic) fails its run with
// reason "panic" and a flight dump, is counted as failed, and leaves the
// daemon serving: the next job on the same server finishes.
func TestExecuteRecoversPanic(t *testing.T) {
	s, ts := testServer(t, 1, 4)
	r := &run{id: "poison", spec: JobSpec{Equation: "acoustic", Refine: 11},
		status: "queued", tap: eventlog.NewTap()}
	s.mu.Lock()
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
	s.execute(r)

	v := waitRun(t, ts.URL, "poison")
	if v.Status != "failed" || v.Reason != "panic" || !v.HasDump || !strings.Contains(v.Error, "panic") {
		t.Fatalf("poison run: %+v", v)
	}
	code, dump := getBody(t, ts.URL+"/v1/runs/poison/flight")
	if code != http.StatusOK || !strings.Contains(dump, `"reason": "panic"`) || !strings.Contains(dump, "run.panic") {
		t.Fatalf("flight dump: %d %s", code, dump)
	}
	if _, metrics := getBody(t, ts.URL+"/v1/metrics"); !strings.Contains(metrics, `wavepimd_runs_total{status="failed"} 1`) {
		t.Fatal("panicked run not counted as failed")
	}

	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit after panic: %d", code)
	}
	if v := waitRun(t, ts.URL, out["id"]); v.Status != "done" {
		t.Fatalf("job after panic: %+v", v)
	}
}

// TestEveryValidGeometryRuns: every equation at every np Normalize
// admits builds, loads and runs one step to done.
func TestEveryValidGeometryRuns(t *testing.T) {
	s, _ := testServer(t, 1, 4)
	for _, eq := range []string{"acoustic", "elastic-central", "elastic-riemann", "maxwell"} {
		for np := wavepim.MinNp; np <= wavepim.MaxNp; np++ {
			spec, err := JobSpec{Equation: eq, Np: np, Steps: 1}.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			r := &run{id: fmt.Sprintf("%s-%d", eq, np), spec: spec, status: "queued", tap: eventlog.NewTap()}
			s.execute(r)
			if v := r.view(); v.Status != "done" {
				t.Errorf("%s np=%d: %+v", eq, np, v)
			}
		}
	}
}

// TestDaemonHealthAndDrain: liveness stays up, readiness flips to 503
// once draining, and drain completes queued work.
func TestDaemonHealthAndDrain(t *testing.T) {
	s, ts := testServer(t, 2, 8)
	if code, body := getBody(t, ts.URL+"/v1/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := getBody(t, ts.URL+"/v1/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("readyz: %d %q", code, body)
	}
	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"maxwell","steps":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	s.Drain()
	if code, _ := getBody(t, ts.URL+"/v1/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: %d", code)
	}
	// The queued Maxwell run completed during drain.
	code, body := getBody(t, ts.URL+"/v1/runs/"+out["id"])
	if code != http.StatusOK {
		t.Fatalf("run after drain: %d", code)
	}
	var v RunView
	json.Unmarshal([]byte(body), &v)
	if v.Status != "done" || v.Equation != "Maxwell" {
		t.Fatalf("drained run: %+v", v)
	}
}

// TestDaemonConcurrentRuns: several jobs across equations on a 2-worker
// pool all complete, /runs lists them in submission order, and the shared
// exposition still parses (one TYPE header per family).
func TestDaemonConcurrentRuns(t *testing.T) {
	_, ts := testServer(t, 2, 8)
	specs := []string{
		`{"equation":"acoustic","steps":2}`,
		`{"equation":"elastic-riemann","steps":2}`,
		`{"equation":"elastic-central","steps":2}`,
		`{"equation":"acoustic","steps":2,"faults":"seed=4,flip=1e-5,stuck=1e-6"}`,
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		code, out := postJSON(t, ts.URL+"/v1/runs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids[i] = out["id"]
	}
	for _, id := range ids {
		if v := waitRun(t, ts.URL, id); v.Status != "done" {
			t.Fatalf("run %s: %+v", id, v)
		}
	}
	_, body := getBody(t, ts.URL+"/v1/runs")
	var list []RunView
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("list has %d runs", len(list))
	}
	for i, v := range list {
		if v.ID != ids[i] {
			t.Fatalf("list order: %v", list)
		}
	}
	_, metrics := getBody(t, ts.URL+"/v1/metrics")
	seen := map[string]bool{}
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("duplicate TYPE %s", name)
			}
			seen[name] = true
		}
	}
	if !seen["sim_phase_span_seconds"] {
		t.Fatalf("missing phase histogram family: %v", seen)
	}
}

// TestDaemonPprof: the profiling surface answers.
func TestDaemonPprof(t *testing.T) {
	_, ts := testServer(t, 1, 2)
	code, body := getBody(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline: %d %q", code, body)
	}
}

// TestDaemonIdempotentSubmit: resubmitting a client id returns the
// existing run — same id in the response, no second run in the table,
// and the run view is stable across resubmits. Client ids are
// canonicalized, so a sloppy retry ("  Job-A \n") still hits the same
// run as the original ("job-a").
func TestDaemonIdempotentSubmit(t *testing.T) {
	_, ts := testServer(t, 1, 8)

	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":2,"id":"job-a"}`)
	if code != http.StatusAccepted || out["id"] != "job-a" {
		t.Fatalf("first submit: %d %v", code, out)
	}
	v := waitRun(t, ts.URL, "job-a")
	if v.Status != "done" {
		t.Fatalf("run: %+v", v)
	}
	_, body1 := getBody(t, ts.URL+"/v1/runs/job-a")

	// Exact resubmit and a sloppy-whitespace/case retry both dedupe.
	for _, payload := range []string{
		`{"equation":"acoustic","steps":2,"id":"job-a"}`,
		`{"equation":"acoustic","steps":2,"id":"  Job-A \n"}`,
	} {
		code, out = postJSON(t, ts.URL+"/v1/runs", payload)
		if code != http.StatusOK || out["id"] != "job-a" {
			t.Fatalf("resubmit %q: %d %v", payload, code, out)
		}
	}
	_, body2 := getBody(t, ts.URL+"/v1/runs/job-a")
	if body1 != body2 {
		t.Fatalf("run view changed across resubmits:\n%s\nvs\n%s", body1, body2)
	}

	_, body := getBody(t, ts.URL+"/v1/runs")
	var list []RunView
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("resubmits created extra runs: %v", list)
	}
}

// TestDaemonSubmitConflict: reusing a tracked client id with DIFFERENT
// content is refused with 409 and the conflict code — returning the
// existing run would silently hand the caller someone else's results.
func TestDaemonSubmitConflict(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":2,"id":"clash-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"equation":"acoustic","steps":7,"id":"clash-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting resubmit: %d, want 409", resp.StatusCode)
	}
	var e cluster.APIError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != cluster.CodeConflict || e.Retryable {
		t.Fatalf("conflict envelope %+v", e)
	}
	// An identical resubmit still dedupes to 200.
	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":2,"id":"clash-1"}`)
	if code != http.StatusOK || out["id"] != "clash-1" {
		t.Fatalf("identical resubmit after conflict: %d %v", code, out)
	}
}

// TestDaemonEventsSSE: the per-run SSE stream replays the run's full
// event log — run.start through run.end with run.progress frames in
// between — and a finished run's stream is byte-identical across two
// subscriptions.
func TestDaemonEventsSSE(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":3,"id":"sse-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitRun(t, ts.URL, out["id"])

	stream := func() string {
		resp, err := http.Get(ts.URL + "/v1/runs/sse-1/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("content type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a := stream()
	b := stream()
	if a != b {
		t.Fatalf("finished-run SSE stream not byte-stable:\n%q\nvs\n%q", a, b)
	}
	for _, want := range []string{
		"event: run.start\n",
		"event: run.progress\n",
		"event: run.end\n",
		"id: 0\n",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("stream missing %q:\n%s", want, a)
		}
	}

	// Frames are well-formed: every data: line is valid JSON.
	sc := bufio.NewScanner(strings.NewReader(a))
	frames := 0
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			frames++
			var ev map[string]any
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("data line not JSON: %q", data)
			}
		}
	}
	if frames < 5 { // start + 3 progress + end
		t.Fatalf("only %d frames", frames)
	}
}

// TestDaemonEventsSSELive: a subscriber attached before the run starts
// receives frames and sees the stream terminate when the run finishes.
func TestDaemonEventsSSELive(t *testing.T) {
	_, ts := testServer(t, 1, 8)
	code, _ := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":2,"id":"live-1"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	var wg sync.WaitGroup
	var live string
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/v1/runs/live-1/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body) // blocks until the run's tap closes
		live = string(b)
	}()
	waitRun(t, ts.URL, "live-1")
	wg.Wait()
	if !strings.Contains(live, "event: run.end\n") {
		t.Fatalf("live stream missed run.end:\n%s", live)
	}
}
