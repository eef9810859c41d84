package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("a.count") != c {
		t.Error("second lookup returned a different counter")
	}
	g := r.Gauge("a.gauge")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Errorf("gauge = %v, want 2.0", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var s *Sink
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Span("x", "y", 0, 1, 0)
	s.Span("x", "y", 0, 1, 0)
	s.Counter("c").Inc()
	s.Gauge("g").Set(1)
	s.Histogram("h").Observe(1)
	if r.Counter("c") != nil || r.Gauge("g") != nil || r.Histogram("h") != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || tr.Len() != 0 {
		t.Error("nil instruments must stay empty")
	}
	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []float64{1e-9, 2e-9, 5e-3, 1.5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if !approxEq(h.Sum(), 1e-9+2e-9+5e-3+1.5) {
		t.Errorf("sum = %v", h.Sum())
	}
	if h.Min() != 1e-9 || h.Max() != 1.5 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	if !approxEq(h.Mean(), h.Sum()/4) {
		t.Errorf("mean = %v", h.Mean())
	}
}

func TestHistogramBuckets(t *testing.T) {
	if bucketOf(0) != 0 || bucketOf(1e-13) != 0 {
		t.Error("tiny values must land in bucket 0")
	}
	if bucketOf(math.Inf(1)) != histBuckets-1 || bucketOf(1e30) != histBuckets-1 {
		t.Error("huge values must land in the last bucket")
	}
	for i := 1; i < histBuckets-1; i++ {
		v := histBase * math.Pow(histGrowth, float64(i)-0.5)
		if got := bucketOf(v); got != i {
			t.Errorf("bucketOf(%g) = %d, want %d", v, got, i)
		}
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(1)
				r.Gauge("g").Set(float64(i))
				tr.Span("s", "cat", float64(i), 1, 0)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := r.Histogram("h").Count(); got != workers*per {
		t.Errorf("histogram count = %d", got)
	}
	if got := r.Histogram("h").Sum(); got != workers*per {
		t.Errorf("histogram sum = %v", got)
	}
	if tr.Len() != workers*per {
		t.Errorf("tracer len = %d", tr.Len())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.second").Add(2)
	r.Counter("a.first").Add(1)
	r.Gauge("g").Set(3.5)
	r.Histogram("h").Observe(0.25)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if snap.Counters["a.first"] != 1 || snap.Counters["z.second"] != 2 {
		t.Errorf("counters = %v", snap.Counters)
	}
	if snap.Gauges["g"] != 3.5 {
		t.Errorf("gauges = %v", snap.Gauges)
	}
	if hs := snap.Histograms["h"]; hs.Count != 1 || hs.Sum != 0.25 {
		t.Errorf("histograms = %v", snap.Histograms)
	}
}

func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer()
	tr.Span("volume", "blocks", 0, 1e-6, 0)
	tr.Span("flux", "blocks", 1e-6, 2e-6, 0)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(out.TraceEvents) != 2 {
		t.Fatalf("got %d events", len(out.TraceEvents))
	}
	if out.TraceEvents[0].Name != "volume" || out.TraceEvents[0].Ph != "X" {
		t.Errorf("event 0 = %+v", out.TraceEvents[0])
	}
	// Seconds convert to microseconds.
	if out.TraceEvents[1].TS != 1 || out.TraceEvents[1].Dur != 2 {
		t.Errorf("event 1 ts/dur = %v/%v, want 1/2", out.TraceEvents[1].TS, out.TraceEvents[1].Dur)
	}
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
