// Package eventlog is the reproduction's structured event log: leveled,
// allocation-conscious JSON-lines output for long-running services
// (wavepimd) and instrumented CLI runs. It complements internal/obs —
// metrics say how much and how fast, the event log says what happened and
// in which run.
//
// Design points, in the same spirit as obs:
//
//   - A nil *Logger is the zero-cost off switch: every method no-ops, so
//     instrumented code holds one pointer and needs no branches.
//   - Events are encoded by hand into a reused buffer under the logger's
//     mutex — no maps, no reflection, no fmt in the hot path — so a rung
//     event inside the recovery ladder costs one lock and one write.
//   - Fields are typed (Str/Int/Uint64/F64/Bool), keys are expected to be
//     fixed identifiers, and the encoder escapes values, so output is
//     always parseable JSONL.
//   - Derived loggers share the parent's writer, level, clock, and flight
//     recorder; WithRun pre-renders the run id into every event, giving
//     per-Session run attribution for free.
//
// The clock is injectable (SetClock) so tests produce byte-stable lines.
package eventlog

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"

	"wavepim/internal/obs"
)

// Level orders event severities.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the lowercase level name used in the JSON output.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return "unknown"
}

// ParseLevel maps a level name ("debug", "info", "warn", "error") to its
// Level; unknown names default to Info.
func ParseLevel(s string) Level {
	switch s {
	case "debug":
		return Debug
	case "warn":
		return Warn
	case "error":
		return Error
	default:
		return Info
	}
}

// fieldKind discriminates the Field payload.
type fieldKind uint8

const (
	kindStr fieldKind = iota
	kindInt
	kindFloat
	kindBool
)

// Field is one typed key/value pair of an event.
type Field struct {
	Key  string
	kind fieldKind
	s    string
	i    int64
	f    float64
	b    bool
}

// Str builds a string field.
func Str(k, v string) Field { return Field{Key: k, kind: kindStr, s: v} }

// Int builds an int field.
func Int(k string, v int) Field { return Field{Key: k, kind: kindInt, i: int64(v)} }

// Int64 builds an int64 field.
func Int64(k string, v int64) Field { return Field{Key: k, kind: kindInt, i: v} }

// F64 builds a float64 field.
func F64(k string, v float64) Field { return Field{Key: k, kind: kindFloat, f: v} }

// Bool builds a bool field.
func Bool(k string, v bool) Field { return Field{Key: k, kind: kindBool, b: v} }

// core is the shared state behind a logger and all its derivations.
type core struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // reused line buffer, guarded by mu

	level Level
	now   func() time.Time
	rec   *FlightRecorder
}

// Logger emits JSONL events. Create with New; derive per-run loggers with
// WithRun. A nil *Logger discards everything.
type Logger struct {
	c    *core
	base []byte // pre-rendered `,"k":"v"` pairs appended to every event
}

// New creates a logger writing events at or above level to w.
func New(w io.Writer, level Level) *Logger {
	return &Logger{c: &core{w: w, level: level, now: time.Now}}
}

// SetClock replaces the timestamp source (tests). No-op on nil.
func (l *Logger) SetClock(now func() time.Time) {
	if l == nil {
		return
	}
	l.c.mu.Lock()
	l.c.now = now
	l.c.mu.Unlock()
}

// SetRecorder tees every emitted line (regardless of level filtering —
// the recorder sees what the writer sees) into a flight recorder.
// No-op on nil.
func (l *Logger) SetRecorder(r *FlightRecorder) {
	if l == nil {
		return
	}
	l.c.mu.Lock()
	l.c.rec = r
	l.c.mu.Unlock()
}

// WithRun derives a logger whose every event carries `"run":id`. The
// derivation shares the parent's writer, level, clock, and recorder.
func (l *Logger) WithRun(id string) *Logger {
	return l.With(Str("run", id))
}

// With derives a logger with extra fields pre-rendered into every event.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	base := append([]byte(nil), l.base...)
	for _, f := range fields {
		base = appendField(base, f)
	}
	return &Logger{c: l.c, base: base}
}

// Level helpers over Log. All no-op on a nil logger.

func (l *Logger) Info(msg string, fields ...Field)  { l.Log(Info, msg, fields...) }
func (l *Logger) Warn(msg string, fields ...Field)  { l.Log(Warn, msg, fields...) }
func (l *Logger) Error(msg string, fields ...Field) { l.Log(Error, msg, fields...) }

// Log encodes and writes one event:
//
//	{"ts":"2026-08-05T12:00:00.000000001Z","level":"info","event":"run.start","run":"r1","steps":4}
//
// Events below the logger's level are dropped before encoding.
func (l *Logger) Log(lv Level, msg string, fields ...Field) {
	if l == nil || lv < l.c.level {
		return
	}
	c := l.c
	c.mu.Lock()
	defer c.mu.Unlock()
	buf := c.buf[:0]
	buf = append(buf, `{"ts":"`...)
	buf = c.now().UTC().AppendFormat(buf, time.RFC3339Nano)
	buf = append(buf, `","level":"`...)
	buf = append(buf, lv.String()...)
	buf = append(buf, `","event":`...)
	buf = appendJSONString(buf, msg)
	buf = append(buf, l.base...)
	for _, f := range fields {
		buf = appendField(buf, f)
	}
	buf = append(buf, '}', '\n')
	c.buf = buf // keep the grown buffer for reuse
	if c.w != nil {
		c.w.Write(buf)
	}
	if c.rec != nil {
		c.rec.record(buf)
	}
}

// appendField renders `,"key":value`.
func appendField(buf []byte, f Field) []byte {
	buf = append(buf, ',')
	buf = appendJSONString(buf, f.Key)
	buf = append(buf, ':')
	switch f.kind {
	case kindStr:
		buf = appendJSONString(buf, f.s)
	case kindInt:
		buf = strconv.AppendInt(buf, f.i, 10)
	case kindFloat:
		// JSON has no Inf/NaN; quote them rather than emit invalid JSON.
		if f.f != f.f || f.f > 1.797e308 || f.f < -1.797e308 {
			buf = appendJSONString(buf, strconv.FormatFloat(f.f, 'g', -1, 64))
		} else {
			buf = strconv.AppendFloat(buf, f.f, 'g', -1, 64)
		}
	case kindBool:
		buf = strconv.AppendBool(buf, f.b)
	}
	return buf
}

// appendJSONString appends s as a quoted, escaped JSON string. Control
// characters, quotes, and backslashes are escaped; everything else is
// passed through (keys and values here are ASCII identifiers and short
// messages, valid UTF-8 passes through unchanged).
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			buf = append(buf, '\\', '"')
		case c == '\\':
			buf = append(buf, '\\', '\\')
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c == '\r':
			buf = append(buf, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

// FlightRecorder keeps the most recent events (as serialized JSONL) and,
// via an attached tracer, the most recent spans — the telemetry a crashed
// or unrecoverable run leaves behind. It is the software analogue of an
// avionics flight recorder: always on, bounded memory, snapshotted at the
// moment of failure.
//
// A nil *FlightRecorder is inert (Dump returns nil).
type FlightRecorder struct {
	mu       sync.Mutex
	events   [][]byte // ring, next is the write index once full
	cap      int
	next     int
	full     bool
	dropped  int64
	tracer   *obs.Tracer
	spanTail int
}

// NewFlightRecorder creates a recorder keeping the last eventCap events
// and, when snapshotting, the last spanTail spans of tracer (which may be
// nil for an events-only recorder).
func NewFlightRecorder(tracer *obs.Tracer, eventCap, spanTail int) *FlightRecorder {
	if eventCap <= 0 {
		eventCap = 256
	}
	if spanTail <= 0 {
		spanTail = 256
	}
	return &FlightRecorder{
		events:   make([][]byte, 0, eventCap),
		cap:      eventCap,
		tracer:   tracer,
		spanTail: spanTail,
	}
}

// record stores a copy of one serialized event line.
func (r *FlightRecorder) record(line []byte) {
	if r == nil {
		return
	}
	cp := append([]byte(nil), line...)
	r.mu.Lock()
	if !r.full && len(r.events) < r.cap {
		r.events = append(r.events, cp)
		if len(r.events) == r.cap {
			r.full = true
		}
	} else {
		r.events[r.next] = cp
		r.next = (r.next + 1) % r.cap
		r.dropped++
	}
	r.mu.Unlock()
}

// FlightDump is one snapshot of the recorder: the reason it was taken,
// the retained events (oldest first, each a complete JSON object), and
// the span tail. Field order is fixed for byte-diffable artifacts.
type FlightDump struct {
	Reason        string            `json:"reason"`
	Run           string            `json:"run,omitempty"`
	Trace         string            `json:"trace,omitempty"` // cluster trace id (hex), when the run carried one
	DroppedEvents int64             `json:"dropped_events"`
	Events        []json.RawMessage `json:"events"`
	Spans         []obs.Span        `json:"spans"`
}

// Dump snapshots the recorder. Returns nil on a nil recorder.
func (r *FlightRecorder) Dump(reason, run string) *FlightDump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	events := make([]json.RawMessage, 0, len(r.events))
	if r.full {
		for i := 0; i < r.cap; i++ {
			events = append(events, trimLine(r.events[(r.next+i)%r.cap]))
		}
	} else {
		for _, e := range r.events {
			events = append(events, trimLine(e))
		}
	}
	dropped := r.dropped
	tracer, tail := r.tracer, r.spanTail
	r.mu.Unlock()

	return &FlightDump{
		Reason:        reason,
		Run:           run,
		DroppedEvents: dropped,
		Events:        events,
		Spans:         tracer.Tail(tail),
	}
}

// trimLine strips the trailing newline of a recorded JSONL line so it
// embeds as a JSON array element.
func trimLine(b []byte) json.RawMessage {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return json.RawMessage(b[:n-1])
	}
	return json.RawMessage(b)
}

// WriteJSON writes the dump as indented JSON with a trailing newline.
// No-op (writes "null") on a nil dump.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
