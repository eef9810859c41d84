// Package trace is the cluster's deterministic distributed-tracing
// substrate. A trace follows one job across the coordinator/worker
// boundary: the trace id is a pure hash of the normalized job id, span
// ids are pure hashes of (trace id, stage, occurrence), and timestamps
// come from the injectable clocks both daemons already run on — so two
// fixed-clock cluster stacks executing the same seeded schedule produce
// byte-identical merged traces, and a span id seen in a log line can be
// recomputed offline from the job id alone.
//
// The coordinator propagates the context to workers in the
// X-Wavepim-Trace header, records one Span per job lifecycle stage
// (admission, per-priority queue wait, each dispatch attempt with its
// retry/backoff/breaker annotation, worker execution, report fetch),
// and GET /v1/jobs/{id}/trace merges that timeline with the worker's
// Chrome trace into one cluster-level Chrome trace each time it is read.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Header is the HTTP header carrying the trace context coordinator →
// worker.
const Header = "X-Wavepim-Trace"

// Stage names of the coordinator-side spans. The root "job" span covers
// submission to terminal; every other stage nests inside it.
const (
	StageJob       = "job"       // root: submission → terminal state
	StageAdmission = "admission" // submit parsing, quota check, journal fsync
	StageQueue     = "queue"     // waiting in the priority queues (one per wait)
	StageDispatch  = "dispatch"  // one POST /v1/runs attempt
	StageStall     = "stall"     // held without an HTTP attempt (breaker-open, no-owner)
	StageBackoff   = "backoff"   // retry backoff sleep after a failed attempt
	StageExec      = "exec"      // accepted by the worker → terminal run status
	StageReport    = "report"    // fetching the worker's report trace
)

// Context is the propagated trace identity.
type Context struct {
	TraceID uint64 // derived from the normalized job id
	Job     string // the normalized job id
}

// New derives the context for a normalized job id.
func New(jobID string) Context { return Context{TraceID: ID(jobID), Job: jobID} }

// ID maps a normalized job id to its 64-bit trace id: FNV-1a over a
// domain-separated copy of the id, then the splitmix64 finalizer — the
// same construction the ring key uses, under a different domain prefix
// so trace ids and ring positions never collide by construction.
func ID(jobID string) uint64 {
	return mix64(fnv1a("trace:", jobID))
}

// SpanID derives the deterministic span id of one stage occurrence:
// a splitmix64 hash of (trace id, stage, occurrence). The n-th "queue"
// wait of a job therefore has the same span id in every run.
func SpanID(traceID uint64, stage string, occurrence int) uint64 {
	return mix64(traceID ^ fnv1a("span:", stage) ^ mix64(uint64(occurrence)+1))
}

// String renders the header value: "trace=<16 hex>;job=<id>".
func (c Context) String() string {
	return fmt.Sprintf("trace=%016x;job=%s", c.TraceID, c.Job)
}

// Hex returns the trace id as the 16-hex-digit string used in views and
// event-log fields.
func (c Context) Hex() string { return fmt.Sprintf("%016x", c.TraceID) }

// Parse decodes a header value produced by String.
func Parse(v string) (Context, error) {
	var c Context
	for _, part := range strings.Split(v, ";") {
		k, val, ok := strings.Cut(part, "=")
		if !ok {
			return Context{}, fmt.Errorf("trace: malformed header part %q", part)
		}
		switch k {
		case "trace":
			if _, err := fmt.Sscanf(val, "%016x", &c.TraceID); err != nil || len(val) != 16 {
				return Context{}, fmt.Errorf("trace: bad trace id %q", val)
			}
		case "job":
			c.Job = val
		default:
			// Unknown keys are ignored: the header is append-only.
		}
	}
	if c.TraceID == 0 && c.Job == "" {
		return Context{}, fmt.Errorf("trace: empty header")
	}
	return c, nil
}

// Span is one completed coordinator-side stage of a job's timeline.
// Start and Dur are seconds relative to the trace epoch (the job's
// submission instant), so a frozen coordinator clock yields all-zero
// times and byte-stable output. The coordinator's journal carries spans
// as JSON; encoding/json writes each float64 in its shortest exact form,
// so a decoded span is bit-identical to the one encoded.
type Span struct {
	Stage      string  `json:"stage"`           // one of the Stage* constants
	Occurrence int     `json:"occurrence"`      // 0-based occurrence index of this stage
	Start      float64 `json:"start"`           // seconds since the trace epoch
	Dur        float64 `json:"dur"`             // seconds
	Annot      string  `json:"annot,omitempty"` // sanitized annotation: priority, retry cause, breaker state, worker id
}

// chromeEvent is one trace_event entry. Field order is fixed by the
// struct so the merged document is byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope Chrome's trace viewer and
// Perfetto accept.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track lanes (Chrome tids) of the coordinator process in the merged
// trace: the root job span gets its own lane, queueing/stalls another,
// dispatch attempts and backoffs a third, execution and report a fourth.
func trackOf(stage string) int {
	switch stage {
	case StageJob:
		return 0
	case StageAdmission, StageQueue, StageStall:
		return 1
	case StageDispatch, StageBackoff:
		return 2
	}
	return 3 // exec, report
}

// Merge writes the cluster-level Chrome trace: the coordinator's stage
// spans as process 1 ("wavepimctl"), the worker's own Chrome trace
// events (as exported by GET /v1/runs/{id}/trace) re-homed to process 2
// ("wavepimd:<worker id>"). workerTrace may be nil (the job never
// executed — rejected, cached, or budget-exhausted); workerID labels
// process 2 and may be "" when workerTrace is nil.
//
// The coordinator spans are emitted root-first, then in record order,
// which for a live coordinator is chronological — consumers (and the CI
// guard) can therefore check that child spans nest inside the root and
// that start times are monotone. Worker events keep their original
// order and timebase (simulated seconds, also monotone).
func Merge(w io.Writer, ctx Context, spans []Span, workerID string, workerTrace []byte) error {
	doc := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{{
		Name: "process_name", Cat: "__metadata", Ph: "M", PID: 1,
		Args: map[string]any{"name": "wavepimctl"},
	}}}

	var worker []chromeEvent
	if len(workerTrace) > 0 {
		var wt chromeTrace
		if err := json.Unmarshal(workerTrace, &wt); err != nil {
			return fmt.Errorf("trace: worker trace for %s: %w", ctx.Job, err)
		}
		worker = wt.TraceEvents
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M", PID: 2,
			Args: map[string]any{"name": "wavepimd:" + workerID},
		})
	}

	// Root first, then children in record order.
	ordered := make([]Span, 0, len(spans))
	for _, s := range spans {
		if s.Stage == StageJob {
			ordered = append(ordered, s)
		}
	}
	for _, s := range spans {
		if s.Stage != StageJob {
			ordered = append(ordered, s)
		}
	}
	for _, s := range ordered {
		args := map[string]any{
			"trace": ctx.Hex(),
			"span":  fmt.Sprintf("%016x", SpanID(ctx.TraceID, s.Stage, s.Occurrence)),
		}
		if s.Stage != StageJob {
			args["parent"] = fmt.Sprintf("%016x", SpanID(ctx.TraceID, StageJob, 0))
		}
		if s.Annot != "" {
			args["annot"] = s.Annot
		}
		name := s.Stage
		if s.Occurrence > 0 {
			name = fmt.Sprintf("%s#%d", s.Stage, s.Occurrence)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name, Cat: "cluster", Ph: "X",
			TS: s.Start * 1e6, Dur: s.Dur * 1e6,
			PID: 1, TID: trackOf(s.Stage), Args: args,
		})
	}
	for _, ev := range worker {
		ev.PID = 2
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Valid reports whether b parses as a Chrome trace document with at
// least one event — the shape check the coordinator applies to a
// fetched worker trace before merging it.
func Valid(b []byte) bool {
	var wt chromeTrace
	if err := json.Unmarshal(bytes.TrimSpace(b), &wt); err != nil {
		return false
	}
	return len(wt.TraceEvents) > 0
}

// fnv1a hashes a domain prefix plus a payload string.
func fnv1a(domain, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(domain); i++ {
		h ^= uint64(domain[i])
		h *= prime64
	}
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer (the same construction the ring key
// and the fault injector use).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
