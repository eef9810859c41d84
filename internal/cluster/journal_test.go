package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/cluster/trace"
)

// TestJournalRoundTrip: appended records come back in order on reopen.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	want := []JournalRecord{
		{T: JournalSubmit, ID: "a", Spec: json.RawMessage(`{"id":"a","equation":"acoustic"}`)},
		{T: JournalDispatch, ID: "a", Worker: "w1"},
		{T: JournalTerminal, ID: "a", Status: "done", Result: json.RawMessage(`{"status":"done"}`)},
		{T: JournalSubmit, ID: "b", Spec: json.RawMessage(`{"id":"b","equation":"acoustic"}`)},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := j.Records(); n != int64(len(want)) {
		t.Fatalf("Records() = %d, want %d", n, len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != len(want) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.T != want[i].T || rec.ID != want[i].ID || rec.Worker != want[i].Worker ||
			rec.Status != want[i].Status || string(rec.Spec) != string(want[i].Spec) ||
			string(rec.Result) != string(want[i].Result) {
			t.Fatalf("record %d: %+v, want %+v", i, rec, want[i])
		}
	}
	if n := j2.Records(); n != int64(len(want)) {
		t.Fatalf("reopened Records() = %d", n)
	}
}

// TestJournalTornTail: a partial final line — the signature of a crash
// mid-write — is dropped; everything before it survives, and the next
// append lands on a fresh line.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	full := `{"t":"submit","id":"a","spec":{"id":"a"}}` + "\n"
	torn := `{"t":"submit","id":"b","sp`
	if err := os.WriteFile(path, []byte(full+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replayed %+v", recs)
	}
	if err := j.Append(JournalRecord{T: JournalSubmit, ID: "c"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// The torn fragment must be truncated away, NOT appended onto: were
	// the fragment still there, record "c" would share its line and be
	// silently dropped by the next replay.
	b, _ := os.ReadFile(path)
	if strings.Contains(string(b), `"id":"b"`) {
		t.Fatalf("torn fragment survived: %s", b)
	}
	_, recs2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after torn-tail append: %v", err)
	}
	if len(recs2) != 2 || recs2[0].ID != "a" || recs2[1].ID != "c" {
		t.Fatalf("reopen replayed %+v", recs2)
	}
}

// TestJournalMidFileCorruption: garbage in the middle of the file is not
// a torn tail — replay must refuse rather than silently lose jobs.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	content := `{"t":"submit","id":"a"}` + "\n" + `GARBAGE` + "\n" + `{"t":"submit","id":"b"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestJournalConcurrentAppends: concurrent appends all become durable
// and parseable (the group-commit path under contention).
func TestJournalConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 16, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec := JournalRecord{T: JournalSubmit, ID: "job"}
				if err := j.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*each {
		t.Fatalf("replayed %d records, want %d", len(recs), writers*each)
	}
}

// TestJournalAppendAfterClose fails loudly.
func TestJournalAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(JournalRecord{T: JournalSubmit, ID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestReplayEqualsLiveTable: a coordinator rebuilt from a journal serves
// the job table its live predecessor served, byte for byte — attempts of
// a retried job and the worker of a cache hit or an exhausted job
// included.
func TestReplayEqualsLiveTable(t *testing.T) {
	fw := newFakeWorker(t)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, MaxRetries: 3, BackoffBase: time.Millisecond,
		BackoffCap: 2 * time.Millisecond, TTL: time.Minute,
		Breaker: BreakerConfig{Threshold: 100},
		Journal: jr,
	})
	fw.register(c, "w1")
	for _, step := range []struct {
		id     string
		steps  int
		bounce int64
	}{
		{"retried", 2, 2},         // two 503s, then done
		{"hit", 2, 0},             // content-identical to "retried": a cache hit
		{"exhausted", 3, 1 << 30}, // 503 until the budget is gone
	} {
		fw.reject.Store(step.bounce)
		if _, _, err := c.Submit(JobSpec{ID: step.id, Equation: "acoustic", Steps: step.steps}); err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, c, step.id, 10*time.Second)
	}
	live, err := json.Marshal(c.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"attempts":2`, `"id":"hit","status":"done","priority":"normal","worker":"w1","cached":true`} {
		if !strings.Contains(string(live), want) {
			t.Fatalf("live table lacks %s: %s", want, live)
		}
	}

	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCoordinator(CoordinatorOptions{TTL: time.Minute, Replay: recs})
	t.Cleanup(c2.Close)
	replayed, err := json.Marshal(c2.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if string(replayed) != string(live) {
		t.Fatalf("replayed table diverges from the live one:\n%s\nvs\n%s", replayed, live)
	}
}

// TestReplayKeepsRetryCharges: a journaled job that bounced k times and
// was waiting out its backoff when the coordinator closed comes back
// from replay with its k charges, not a fresh budget. Replayed under a
// budget of k, it fails as exhausted and is not dispatched again.
func TestReplayKeepsRetryCharges(t *testing.T) {
	const k = 2
	fw := newFakeWorker(t)
	fw.reject.Store(k)
	fw.status.Store("running")
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Each backoff lasts 100-200 ms, so the poll below sees the k-th
	// charge long before the job would be dispatched again.
	c := NewCoordinator(CoordinatorOptions{
		Dispatchers: 1, MaxRetries: k + 2, BackoffBase: 200 * time.Millisecond,
		BackoffCap: 200 * time.Millisecond, TTL: time.Minute,
		Breaker: BreakerConfig{Threshold: 100},
		Journal: jr,
	})
	fw.register(c, "w1")
	if _, _, err := c.Submit(JobSpec{ID: "backoff", Equation: "acoustic", Steps: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, _ := c.Job("backoff")
		if v := j.view(); v.Attempts == k {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never charged %d retries", k)
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	c2 := NewCoordinator(CoordinatorOptions{MaxRetries: k + 2, TTL: time.Minute, Replay: recs})
	t.Cleanup(c2.Close)
	j2, _ := c2.Job("backoff")
	if v := j2.view(); v.Status == "done" || v.Status == "failed" || v.Attempts != k {
		t.Fatalf("replayed job %s with %d attempts, want non-terminal with %d", v.Status, v.Attempts, k)
	}

	c3 := NewCoordinator(CoordinatorOptions{MaxRetries: k, TTL: time.Minute, Replay: recs})
	t.Cleanup(c3.Close)
	fw3 := newFakeWorker(t)
	fw3.register(c3, "w1")
	j3, _ := c3.Job("backoff")
	if v := j3.view(); v.Status != "failed" || v.Attempts != k {
		t.Fatalf("replayed under a budget of %d: %s with %d attempts, want failed with %d", k, v.Status, v.Attempts, k)
	}
	var ex *ErrRetriesExhausted
	if !errors.As(j3.Err(), &ex) || ex.ID != "backoff" || ex.Attempts != k {
		t.Fatalf("terminal error %v, want *ErrRetriesExhausted after %d attempts", j3.Err(), k)
	}
	if st := c3.Replay(); st.Requeued != 0 {
		t.Fatalf("replay requeued %d jobs, want 0", st.Requeued)
	}
	if n := fw3.posts.Load(); n != 0 {
		t.Fatalf("exhausted job was dispatched %d times after replay", n)
	}
}

// TestReplayTerminalWithoutUsableTrace: two terminal records this
// coordinator cannot build a trace from still restore their jobs. One is
// in the format that journaled a merged document, its digest and the
// decomposition instead of spans (encoding/json skips those fields); the
// other carries a worker trace that is valid JSON the merge rejects. Each
// job keeps its report byte for byte and its /v1/jobs row, and its trace
// answers 404 not_found.
func TestReplayTerminalWithoutUsableTrace(t *testing.T) {
	legacyReport := `{"id":"legacy","status":"done","report":"legacy-bytes"}`
	badReport := `{"id":"badworker","status":"failed","error":"boom"}`
	lines := []string{
		`{"t":"submit","id":"legacy","spec":{"id":"legacy","equation":"acoustic","steps":2}}`,
		`{"t":"retry","id":"legacy","error":"worker w1 bounced job: 503","attempts":1}`,
		`{"t":"dispatch","id":"legacy","worker":"w1"}`,
		`{"t":"terminal","id":"legacy","worker":"w1","status":"done","attempts":1,"result":` + legacyReport +
			`,"stages":{"queue_sec":0.5,"dispatch_sec":0.25,"exec_sec":1,"e2e_sec":2}` +
			`,"trace":{"traceEvents":[{"name":"job","ph":"X","pid":1,"tid":0}],"displayTimeUnit":"ns"}` +
			`,"trace_digest":"0123456789abcdef"}`,
		`{"t":"submit","id":"badworker","spec":{"id":"badworker","equation":"acoustic","steps":3}}`,
		`{"t":"dispatch","id":"badworker","worker":"w2"}`,
		`{"t":"terminal","id":"badworker","worker":"w2","status":"failed","error":"boom","result":` + badReport +
			`,"spans":[{"stage":"admission","occurrence":0,"start":0,"dur":0.001,"annot":"normal"},` +
			`{"stage":"exec","occurrence":0,"start":0.002,"dur":0.25,"annot":"worker:w2"},` +
			`{"stage":"job","occurrence":0,"start":0,"dur":0.5,"annot":"failed"}]` +
			`,"worker_trace":{"traceEvents":"x"}}`,
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	c := NewCoordinator(CoordinatorOptions{TTL: time.Minute, Replay: recs})
	t.Cleanup(c.Close)
	if st := c.Replay(); st.Restored != 2 || st.Requeued != 0 || st.Dropped != 0 {
		t.Fatalf("replay stats %+v", st)
	}
	h := c.Handler()
	get := func(path string) (int, string) {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr.Code, rr.Body.String()
	}

	row := func(id, status, worker, errMsg string, attempts, steps int, stages StageSeconds) JobView {
		return JobView{ID: id, Status: status, Priority: "normal", Worker: worker, Error: errMsg,
			Attempts: attempts,
			Digest:   fmt.Sprintf("%016x", JobSpec{ID: id, Equation: "acoustic", Steps: steps}.Digest()),
			Trace:    fmt.Sprintf("%016x", trace.ID(id)),
			Stages:   stages}
	}
	wantRows := []JobView{
		row("legacy", "done", "w1", "", 1, 2, StageSeconds{}),
		row("badworker", "failed", "w2", "boom", 0, 3, StageSeconds{ExecSec: 0.25, E2ESec: 0.5}),
	}
	code, body := get("/v1/jobs")
	var rows []JobView
	if err := json.Unmarshal([]byte(body), &rows); code != 200 || err != nil {
		t.Fatalf("GET /v1/jobs: %d %v %s", code, err, body)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("replayed rows\n%+v\nwant\n%+v", rows, wantRows)
	}

	for id, report := range map[string]string{"legacy": legacyReport, "badworker": badReport} {
		if code, body := get("/v1/jobs/" + id); code != 200 || body != report {
			t.Errorf("GET /v1/jobs/%s: %d %s, want 200 %s", id, code, body, report)
		}
		code, body := get("/v1/jobs/" + id + "/trace")
		var e APIError
		if err := json.Unmarshal([]byte(body), &e); code != 404 || err != nil || e.Code != CodeNotFound || e.Retryable {
			t.Errorf("GET /v1/jobs/%s/trace: %d %s, want 404 %s", id, code, body, CodeNotFound)
		}
	}
}
