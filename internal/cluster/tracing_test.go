package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"wavepim/internal/cluster/trace"
)

// TestSpanJournalRoundTrip: a finalized timeline with retries, backoffs,
// a stall and a report fetch, at irregular non-zero times, survives the
// terminal journal record's JSON round trip. The rebuilt trace sums to
// the same decomposition bits and merges to the same bytes (the worker
// trace is compacted by the marshal), and occurrences count the earlier
// spans of each stage.
func TestSpanJournalRoundTrip(t *testing.T) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 6789, time.UTC)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * 1e6)) }
	tl := newJobTrace("rt-1", t0)
	tl.record(trace.StageAdmission, t0, at(0.137), "normal")
	tl.openQueue(at(0.137), "normal")
	tl.closeQueue(at(2.71))
	tl.endAttempt(at(2.71), at(5.03), "retry: worker w1 bounced job: 503")
	tl.record(trace.StageBackoff, at(5.03), at(17.9), "attempt 1")
	tl.openQueue(at(17.9), "normal")
	tl.closeQueue(at(18.33))
	tl.record(trace.StageStall, at(18.33), at(28.4), "breaker-open:w1")
	tl.openQueue(at(28.4), "normal")
	tl.closeQueue(at(29.01))
	tl.endAttempt(at(29.01), at(31.7), "accepted:w2")
	tl.openExec(at(31.7), "worker:w2")
	tl.endAttempt(at(31.7), at(48.2), "retry: worker w2 lost run")
	tl.record(trace.StageBackoff, at(48.2), at(71.3), "attempt 2")
	tl.openQueue(at(71.3), "normal")
	tl.closeQueue(at(71.9))
	tl.endAttempt(at(71.9), at(73.3), "accepted:w2")
	tl.openExec(at(73.3), "worker:w2")
	tl.closeExec(at(80.5), "")
	tl.record(trace.StageReport, at(80.5), at(81.25), "worker:w2")
	tl.finalize(at(81.25), "done")

	var names []string
	for _, s := range tl.spans {
		names = append(names, fmt.Sprintf("%s#%d", s.Stage, s.Occurrence))
	}
	want := "admission#0 queue#0 dispatch#0 backoff#0 queue#1 stall#0 queue#2 dispatch#1 exec#0 " +
		"backoff#1 queue#3 dispatch#2 exec#1 report#0 job#0"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("span occurrences\n%s\nwant\n%s", got, want)
	}

	workerTrace := []byte("{\n \"traceEvents\": [\n  {\"name\": \"step\", \"cat\": \"sim\", \"ph\": \"X\", " +
		"\"ts\": 1.5, \"dur\": 2.25, \"pid\": 7, \"tid\": 0, \"args\": {\"n\": 3}}\n ],\n \"displayTimeUnit\": \"ns\"\n}\n")
	line, err := json.Marshal(JournalRecord{T: JournalTerminal, ID: "rt-1", Spans: tl.spans, WorkerTrace: workerTrace})
	if err != nil {
		t.Fatal(err)
	}
	var rec JournalRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(rec.WorkerTrace, workerTrace) {
		t.Fatal("the record marshal left the worker trace uncompacted; the round trip checks nothing")
	}
	rebuilt := &jobTrace{ctx: trace.New("rt-1"), spans: rec.Spans}

	a, b := tl.stageSeconds(), rebuilt.stageSeconds()
	if a.QueueSec == 0 || a.DispatchSec == 0 || a.ExecSec == 0 || a.E2ESec == 0 {
		t.Fatalf("decomposition %+v has an empty stage", a)
	}
	for i, pair := range [][2]float64{{a.QueueSec, b.QueueSec}, {a.DispatchSec, b.DispatchSec},
		{a.ExecSec, b.ExecSec}, {a.E2ESec, b.E2ESec}} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Errorf("stage %d: live %v, rebuilt %v", i, pair[0], pair[1])
		}
	}

	var live, replayed bytes.Buffer
	if err := trace.Merge(&live, tl.ctx, tl.spans, "w2", workerTrace); err != nil {
		t.Fatal(err)
	}
	if err := trace.Merge(&replayed, rebuilt.ctx, rebuilt.spans, "w2", rec.WorkerTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatalf("rebuilt trace merges to other bytes:\n%s\nvs\n%s", replayed.Bytes(), live.Bytes())
	}
	for _, name := range []string{`"name": "dispatch#1"`, `"name": "queue#2"`, `"name": "step"`} {
		if !bytes.Contains(live.Bytes(), []byte(name)) {
			t.Errorf("merged trace lacks %s", name)
		}
	}
}
