package trace

import (
	"bytes"
	"strings"
	"testing"
)

// Trace ids are pure functions of the job id, distinct across ids, and
// survive the header round trip.
func TestIDAndHeaderRoundTrip(t *testing.T) {
	a, b := New("job-a"), New("job-b")
	if a.TraceID == 0 || b.TraceID == 0 {
		t.Fatalf("zero trace id: %x %x", a.TraceID, b.TraceID)
	}
	if a.TraceID == b.TraceID {
		t.Fatalf("distinct jobs share trace id %x", a.TraceID)
	}
	if got := New("job-a"); got != a {
		t.Fatalf("trace id not deterministic: %+v vs %+v", got, a)
	}
	parsed, err := Parse(a.String())
	if err != nil {
		t.Fatalf("Parse(%q): %v", a.String(), err)
	}
	if parsed != a {
		t.Fatalf("round trip: %+v vs %+v", parsed, a)
	}
	if !strings.HasPrefix(a.String(), "trace=") || !strings.Contains(a.String(), ";job=job-a") {
		t.Fatalf("header format: %q", a.String())
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, v := range []string{"", "trace", "trace=xyz;job=a", "trace=123;job=a"} {
		if _, err := Parse(v); err == nil {
			t.Fatalf("Parse(%q) accepted", v)
		}
	}
	// Unknown keys are ignored (forward compatibility).
	c, err := Parse("trace=00000000000000aa;job=j;future=1")
	if err != nil || c.TraceID != 0xaa || c.Job != "j" {
		t.Fatalf("forward-compat parse: %+v, %v", c, err)
	}
}

// Span ids separate stages and occurrences of one trace.
func TestSpanIDs(t *testing.T) {
	tid := ID("job-a")
	seen := map[uint64]string{}
	for _, stage := range []string{StageJob, StageQueue, StageDispatch, StageExec} {
		for occ := 0; occ < 3; occ++ {
			id := SpanID(tid, stage, occ)
			if prev, dup := seen[id]; dup {
				t.Fatalf("span id collision: %s/%d vs %s", stage, occ, prev)
			}
			seen[id] = stage
			if id != SpanID(tid, stage, occ) {
				t.Fatalf("span id not deterministic: %s/%d", stage, occ)
			}
		}
	}
}

// Merge is byte-deterministic and produces a well-formed nested document.
func TestMergeDeterministicAndNested(t *testing.T) {
	ctx := New("merge-job")
	spans := []Span{
		{Stage: StageAdmission, Start: 0, Dur: 0.001, Annot: "normal"},
		{Stage: StageQueue, Start: 0.001, Dur: 0.010, Annot: "normal"},
		{Stage: StageDispatch, Start: 0.011, Dur: 0.002, Annot: "retry: connection refused"},
		{Stage: StageBackoff, Start: 0.013, Dur: 0.020, Annot: "attempt 1"},
		{Stage: StageDispatch, Occurrence: 1, Start: 0.033, Dur: 0.002, Annot: "accepted:w1"},
		{Stage: StageExec, Start: 0.035, Dur: 0.050, Annot: "worker:w1"},
		{Stage: StageJob, Start: 0, Dur: 0.090, Annot: "done"},
	}
	workerTrace := []byte(`{"traceEvents":[{"name":"step","cat":"sim","ph":"X","ts":1,"dur":2,"pid":7,"tid":0}],"displayTimeUnit":"ns"}`)

	var a, b bytes.Buffer
	if err := Merge(&a, ctx, spans, "w1", workerTrace); err != nil {
		t.Fatal(err)
	}
	if err := Merge(&b, ctx, spans, "w1", workerTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("merge not byte-deterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if !Valid(a.Bytes()) {
		t.Fatalf("merged doc fails Valid:\n%s", a.String())
	}
	out := a.String()
	for _, want := range []string{
		`"name": "wavepimctl"`,
		`"name": "wavepimd:w1"`,
		`"name": "job"`,
		`"name": "dispatch#1"`,
		`"annot": "accepted:w1"`,
		`"parent"`,
		`"name": "step"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged doc missing %s:\n%s", want, out)
		}
	}
	// The worker event is re-homed to pid 2, never its original pid.
	if strings.Contains(out, `"pid": 7`) {
		t.Fatalf("worker event kept its original pid:\n%s", out)
	}
}

func TestMergeRejectsMalformedWorkerTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Merge(&buf, New("x"), nil, "w1", []byte("{nope")); err == nil {
		t.Fatal("malformed worker trace accepted")
	}
	if Valid([]byte("{nope")) || Valid([]byte(`{"traceEvents":[]}`)) {
		t.Fatal("Valid accepted an invalid document")
	}
}
