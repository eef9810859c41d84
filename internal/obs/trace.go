package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// Span is one completed duration event. Times are in seconds on whatever
// clock the producer uses — the simulator records simulated chip time, the
// dg solvers record host wall time — and are converted to the microsecond
// timestamps Chrome's trace viewer expects only at export.
type Span struct {
	Name  string  // event name (phase or kernel)
	Cat   string  // category: "blocks", "transfer", "dram", "host", "stage", ...
	Start float64 // start time, seconds
	Dur   float64 // duration, seconds
	Track int     // rendered as the trace's thread id (one lane per track)
}

// Tracer records spans. A nil *Tracer discards everything. Safe for
// concurrent use.
//
// By default a tracer grows without bound (the right mode for golden-trace
// tests and short runs, where every span matters). WithCap switches it to
// a fixed-capacity ring that keeps only the most recent spans — the mode
// long-running services use so a week of scraping cannot grow RSS.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	cap   int // 0: unbounded append mode; >0: ring of this size
	start int // ring mode: index of the oldest span
}

// NewTracer creates an empty, unbounded tracer.
func NewTracer() *Tracer { return &Tracer{} }

// WithCap bounds the tracer to a ring of the n most recent spans (n <= 0
// restores unbounded mode) and returns the tracer for chaining:
//
//	tr := obs.NewTracer().WithCap(4096)
//
// Switching modes resets recorded spans.
func (t *Tracer) WithCap(n int) *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	if n < 0 {
		n = 0
	}
	t.cap = n
	t.spans = nil
	t.start = 0
	t.mu.Unlock()
	return t
}

// Record appends a completed span. No-op on a nil tracer. In ring mode,
// once the ring is full each new span overwrites the oldest one.
func (t *Tracer) Record(s Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.cap > 0 && len(t.spans) == t.cap {
		t.spans[t.start] = s
		t.start = (t.start + 1) % t.cap
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Span is the convenience form of Record.
func (t *Tracer) Span(name, cat string, start, dur float64, track int) {
	t.Record(Span{Name: name, Cat: cat, Start: start, Dur: dur, Track: track})
}

// Spans returns a copy of the recorded spans in record order (in ring
// mode: oldest retained first).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	if t.start == 0 {
		copy(out, t.spans)
	} else {
		n := copy(out, t.spans[t.start:])
		copy(out[n:], t.spans[:t.start])
	}
	return out
}

// Tail returns the most recent n spans in record order (all of them when
// fewer are retained) — the span half of a flight-recorder snapshot.
func (t *Tracer) Tail(n int) []Span {
	all := t.Spans()
	if n <= 0 || len(all) <= n {
		return all
	}
	return all[len(all)-n:]
}

// Len returns the number of recorded spans (0 for nil).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Reset drops all recorded spans (keeping the configured cap mode).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.start = 0
	t.mu.Unlock()
}

// chromeEvent is one trace_event entry ("X" = complete event). Timestamps
// and durations are microseconds, per the Chrome trace format spec.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// chromeTrace is the JSON-object envelope (the variant that allows
// metadata next to the event array).
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the recorded spans as Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. Spans keep their record order;
// producers that record in clock order (the simulator commits phases as
// the simulated clock advances) therefore export monotonically ordered
// timestamps.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	out := chromeTrace{TraceEvents: make([]chromeEvent, len(spans)), DisplayTimeUnit: "ns"}
	for i, s := range spans {
		out.TraceEvents[i] = chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: s.Start * 1e6, Dur: s.Dur * 1e6,
			PID: 1, TID: s.Track,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// Sink bundles a metrics registry and a tracer — the single pointer
// instrumented subsystems hold. A nil *Sink disables all instrumentation;
// the accessor methods below are nil-safe so call sites can stay
// branch-free at the cost of one nil-returning call.
type Sink struct {
	Reg   *Registry
	Trace *Tracer
}

// NewSink creates a sink with a fresh registry and tracer.
func NewSink() *Sink { return &Sink{Reg: NewRegistry(), Trace: NewTracer()} }

// Counter resolves a registry counter; nil from a nil sink.
func (s *Sink) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.Reg.Counter(name)
}

// Gauge resolves a registry gauge; nil from a nil sink.
func (s *Sink) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.Reg.Gauge(name)
}

// Histogram resolves a registry histogram; nil from a nil sink.
func (s *Sink) Histogram(name string) *Histogram {
	if s == nil {
		return nil
	}
	return s.Reg.Histogram(name)
}

// Span records a span; no-op on a nil sink.
func (s *Sink) Span(name, cat string, start, dur float64, track int) {
	if s == nil {
		return
	}
	s.Trace.Span(name, cat, start, dur, track)
}

// WriteTrace exports the Chrome trace (empty trace from a nil sink).
func (s *Sink) WriteTrace(w io.Writer) error {
	if s == nil {
		return (*Tracer)(nil).WriteChromeTrace(w)
	}
	return s.Trace.WriteChromeTrace(w)
}

// WriteMetrics exports the registry snapshot JSON (empty from nil).
func (s *Sink) WriteMetrics(w io.Writer) error {
	if s == nil {
		return (*Registry)(nil).WriteJSON(w)
	}
	return s.Reg.WriteJSON(w)
}
