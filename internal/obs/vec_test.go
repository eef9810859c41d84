package obs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestCounterVecBasics(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("rpc.calls", "method", "code")
	cv.With("get", "200").Add(3)
	cv.With("get", "500").Inc()
	cv.With("put", "200").Inc()
	// Same tuple resolves the same child.
	if cv.With("get", "200") != cv.With("get", "200") {
		t.Fatal("With not idempotent for one tuple")
	}
	snap := r.Snapshot()
	if got := snap.Counters[`rpc.calls{method="get",code="200"}`]; got != 3 {
		t.Fatalf("child value = %d, want 3 (counters: %v)", got, snap.Counters)
	}
	if len(snap.Counters) != 3 {
		t.Fatalf("want 3 children, got %v", snap.Counters)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("clean registry reports %v", err)
	}
}

func TestGaugeAndHistogramVec(t *testing.T) {
	r := NewRegistry()
	r.GaugeVec("pool.size", "state").With("idle").Set(7)
	r.HistogramVec("span.seconds", "phase").With("flux").Observe(1e-6)
	r.HistogramVec("span.seconds", "phase").With("flux").Observe(1e-3)
	snap := r.Snapshot()
	if got := snap.Gauges[`pool.size{state="idle"}`]; got != 7 {
		t.Fatalf("gauge child = %v", got)
	}
	h := snap.Histograms[`span.seconds{phase="flux"}`]
	if h.Count != 2 || h.Sum != 1e-6+1e-3 {
		t.Fatalf("hist child = %+v", h)
	}
}

func TestVecNilSafety(t *testing.T) {
	var r *Registry
	var s *Sink
	// Every step of the nil chain must no-op, not panic.
	r.CounterVec("x", "a").With("v").Inc()
	r.GaugeVec("x", "a").With("v").Set(1)
	r.HistogramVec("x", "a").With("v").Observe(1)
	s.CounterVec("x", "a").With("v").Inc()
	s.HistogramVec("x", "a").With("v").Observe(1)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestKindConflictLatched(t *testing.T) {
	r := NewRegistry()
	r.Counter("m").Inc()
	if g := r.Gauge("m"); g != nil {
		t.Fatal("conflicting Gauge registration returned a live instrument")
	}
	if cv := r.CounterVec("m", "k"); cv != nil {
		t.Fatal("conflicting CounterVec registration returned a live vec")
	}
	err := r.Err()
	if err == nil {
		t.Fatal("no latched error after kind conflict")
	}
	var kc *KindConflictError
	if !errors.As(err, &kc) {
		t.Fatalf("want KindConflictError, got %T: %v", err, err)
	}
	if kc.Name != "m" || kc.Existing != "counter" {
		t.Fatalf("bad conflict detail: %+v", kc)
	}
	// The original instrument keeps working.
	r.Counter("m").Inc()
	if got := r.Snapshot().Counters["m"]; got != 2 {
		t.Fatalf("original counter broken after conflict: %d", got)
	}
	// WriteJSON and WriteProm both surface the latched error.
	if err := r.WriteJSON(&strings.Builder{}); err == nil {
		t.Fatal("WriteJSON swallowed the conflict")
	}
	if err := r.WriteProm(&strings.Builder{}); err == nil {
		t.Fatal("WriteProm swallowed the conflict")
	}
}

func TestLabelKeyMismatchLatched(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("v", "a", "b").With("1", "2").Inc()
	if cv := r.CounterVec("v", "a", "c"); cv != nil {
		t.Fatal("re-registration with different keys returned a live vec")
	}
	var lm *LabelMismatchError
	if err := r.Err(); !errors.As(err, &lm) || lm.Use != "register" {
		t.Fatalf("want register LabelMismatchError, got %v", err)
	}
}

func TestWithArityMismatchLatched(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v", "a", "b")
	if c := cv.With("only-one"); c != nil {
		t.Fatal("arity-mismatched With returned a live counter")
	}
	cv.With("only-one").Inc() // and the nil child must no-op
	var lm *LabelMismatchError
	if err := r.Err(); !errors.As(err, &lm) || lm.Use != "with" {
		t.Fatalf("want with LabelMismatchError, got %v", err)
	}
}

func TestSnapshotDeterministicForVecs(t *testing.T) {
	// Two registries populated in opposite orders must serialize to
	// identical bytes.
	mk := func(order []int) string {
		r := NewRegistry()
		cv := r.CounterVec("c", "i")
		hv := r.HistogramVec("h", "i")
		for _, i := range order {
			cv.With(fmt.Sprint(i)).Add(int64(i))
			hv.With(fmt.Sprint(i)).Observe(float64(i))
		}
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a := mk([]int{0, 1, 2, 3})
	b := mk([]int{3, 1, 0, 2})
	if a != b {
		t.Fatalf("vec snapshot order-dependent:\n%s\nvs\n%s", a, b)
	}
}

// TestCounterVecConcurrentScrape hammers one vec from 16 goroutines —
// both resolving new children and incrementing existing ones — while the
// main goroutine scrapes. Run under -race (CI does) this is the
// thread-safety proof for the RWMutex child map.
func TestCounterVecConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("hammer", "worker", "step")
	const workers = 16
	const iters = 500
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				cv.With(fmt.Sprint(w), fmt.Sprint(i%8)).Inc()
			}
		}(w)
	}
	close(start)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
			if err := r.WriteProm(&strings.Builder{}); err != nil {
				t.Errorf("scrape during hammer: %v", err)
				scraping = false
			}
		}
	}
	wg.Wait()
	var total int64
	for _, v := range r.Snapshot().Counters {
		total += v
	}
	if total != workers*iters {
		t.Fatalf("lost increments: %d of %d", total, workers*iters)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer().WithCap(4)
	for i := 0; i < 10; i++ {
		tr.Span(fmt.Sprintf("s%d", i), "test", float64(i), 1, 0)
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(got))
	}
	for i, s := range got {
		if want := fmt.Sprintf("s%d", 6+i); s.Name != want {
			t.Fatalf("span %d = %q, want %q (ring not oldest-first)", i, s.Name, want)
		}
	}
	if tail := tr.Tail(2); len(tail) != 2 || tail[1].Name != "s9" {
		t.Fatalf("Tail(2) = %v", tail)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset did not clear ring state")
	}
	// Cap <= 0 restores unbounded mode.
	tr.WithCap(0)
	for i := 0; i < 10; i++ {
		tr.Span("x", "test", 0, 1, 0)
	}
	if tr.Len() != 10 {
		t.Fatalf("unbounded mode capped at %d", tr.Len())
	}
}
