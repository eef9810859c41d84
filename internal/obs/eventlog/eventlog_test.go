package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/obs"
)

// fixedClock returns a deterministic, advancing clock for byte-stable
// output.
func fixedClock() func() time.Time {
	t := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Nanosecond)
		return t
	}
}

func TestLogLineFormat(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	l.SetClock(func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 1, time.UTC) })
	l.Info("run.start", Str("equation", "acoustic"), Int("steps", 4))
	want := `{"ts":"2026-08-05T12:00:00.000000001Z","level":"info","event":"run.start","equation":"acoustic","steps":4}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestFieldTypes(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Debug)
	l.SetClock(fixedClock())
	l.Log(Debug, "types",
		Str("s", "a\"b\\c\nd\te"),
		Int64("i", -12),
		Int64("u", math.MinInt64),
		F64("f", 0.25),
		F64("inf", math.Inf(1)),
		F64("nan", math.NaN()),
		Bool("b", true))
	var ev map[string]any
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("line does not parse: %v\n%s", err, buf.String())
	}
	if ev["s"] != "a\"b\\c\nd\te" {
		t.Fatalf("string round-trip: %q", ev["s"])
	}
	if ev["i"] != float64(-12) || ev["b"] != true || ev["f"] != 0.25 {
		t.Fatalf("scalar fields: %v", ev)
	}
	// Non-finite floats are quoted, keeping the line valid JSON.
	if ev["inf"] != "+Inf" || ev["nan"] != "NaN" {
		t.Fatalf("non-finite floats: inf=%v nan=%v", ev["inf"], ev["nan"])
	}
	// Int64 min survives textually (json numbers lose precision past 2^53).
	if !strings.Contains(buf.String(), `"u":-9223372036854775808`) {
		t.Fatalf("int64 mangled: %s", buf.String())
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Warn)
	l.SetClock(fixedClock())
	l.Log(Debug, "d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %v", lines)
	}
	for lv, name := range map[Level]string{Debug: "debug", Info: "info", Warn: "warn", Error: "error"} {
		if lv.String() != name || ParseLevel(name) != lv {
			t.Fatalf("level %v round-trip", lv)
		}
	}
	if ParseLevel("bogus") != Info {
		t.Fatal("unknown level must default to Info")
	}
}

func TestWithRunAndDerivation(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	l.SetClock(fixedClock())
	r1 := l.WithRun("r1")
	r2 := r1.With(Str("job", "acoustic"))
	r1.Info("a")
	r2.Info("b")
	l.Info("c")
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"run":"r1"`) {
		t.Fatalf("derived logger lost run id: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"run":"r1"`) || !strings.Contains(lines[1], `"job":"acoustic"`) {
		t.Fatalf("second derivation lost fields: %s", lines[1])
	}
	if strings.Contains(lines[2], `"run"`) {
		t.Fatalf("parent polluted by derivation: %s", lines[2])
	}
}

func TestNilLogger(t *testing.T) {
	var l *Logger
	l.Info("x", Str("k", "v"))
	l.SetClock(fixedClock())
	l.SetRecorder(nil)
	if l.WithRun("r") != nil || l.With(Str("a", "b")) != nil {
		t.Fatal("derivations of nil must stay nil")
	}
	l.Log(Error, "x")
}

func TestConcurrentLogging(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	l.SetClock(fixedClock())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rl := l.WithRun(fmt.Sprintf("r%d", w))
			for i := 0; i < 200; i++ {
				rl.Info("tick", Int("i", i))
			}
		}(w)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8*200 {
		t.Fatalf("lost lines: %d", len(lines))
	}
	for _, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("interleaved/corrupt line: %q", line)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer().WithCap(8)
	for i := 0; i < 12; i++ {
		tr.Span(fmt.Sprintf("s%d", i), "test", float64(i), 1, 0)
	}
	l := New(&buf, Info)
	l.SetClock(fixedClock())
	fr := NewFlightRecorder(tr, 4, 3)
	l.SetRecorder(fr)
	for i := 0; i < 10; i++ {
		l.Info("e", Int("i", i))
	}
	d := fr.Dump("test", "r")
	if d.Reason != "test" || d.Run != "r" {
		t.Fatalf("header: %+v", d)
	}
	if len(d.Events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(d.Events))
	}
	if d.DroppedEvents != 6 {
		t.Fatalf("dropped = %d, want 6", d.DroppedEvents)
	}
	// Oldest-first, and each entry is a complete JSON object (no newline).
	for i, raw := range d.Events {
		var ev map[string]any
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if want := float64(6 + i); ev["i"] != want {
			t.Fatalf("event %d = %v, want i=%v", i, ev["i"], want)
		}
		if bytes.ContainsRune(raw, '\n') {
			t.Fatalf("event %d kept its newline", i)
		}
	}
	if len(d.Spans) != 3 || d.Spans[2].Name != "s11" {
		t.Fatalf("span tail: %+v", d.Spans)
	}
	// The dump serializes as JSON.
	var out bytes.Buffer
	if err := d.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back FlightDump
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Reason != "test" || len(back.Events) != 4 || len(back.Spans) != 3 {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestFlightRecorderNil(t *testing.T) {
	var fr *FlightRecorder
	fr.record([]byte("x"))
	if fr.Dump("r", "") != nil {
		t.Fatal("nil recorder must dump nil")
	}
	// Recorder without a tracer still dumps events.
	fr = NewFlightRecorder(nil, 2, 2)
	fr.record([]byte(`{"a":1}` + "\n"))
	d := fr.Dump("x", "")
	if len(d.Events) != 1 || d.Spans != nil {
		t.Fatalf("tracerless dump: %+v", d)
	}
}

func TestRecorderSeesFilteredWriterStream(t *testing.T) {
	// The recorder captures exactly what the writer sees: events below
	// the level reach neither.
	var buf bytes.Buffer
	l := New(&buf, Warn)
	l.SetClock(fixedClock())
	fr := NewFlightRecorder(nil, 8, 0)
	l.SetRecorder(fr)
	l.Info("dropped")
	l.Warn("kept")
	d := fr.Dump("x", "")
	if len(d.Events) != 1 || !bytes.Contains(d.Events[0], []byte(`"kept"`)) {
		t.Fatalf("recorder/writer disagree: %v", d.Events)
	}
}

func BenchmarkLogEvent(b *testing.B) {
	l := New(nilWriter{}, Info)
	l.SetClock(func() time.Time { return time.Unix(0, 0) })
	rl := l.WithRun("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rl.Info("fault.rung", Str("rung", "ecc"), Int("block", 3), F64("cost_seconds", 1e-9))
	}
}

func BenchmarkNilLogger(b *testing.B) {
	var l *Logger
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Info("fault.rung", Str("rung", "ecc"), Int("block", 3), F64("cost_seconds", 1e-9))
	}
}

type nilWriter struct{}

func (nilWriter) Write(p []byte) (int, error) { return len(p), nil }
