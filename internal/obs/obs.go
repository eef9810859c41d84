// Package obs is the reproduction's observability layer: a lightweight,
// allocation-free metrics registry (counters, gauges, histograms) plus a
// span recorder with Chrome trace_event export. The paper's evaluation is
// entirely per-kernel timelines and energies (Tables 2-6, Figure 13), so
// the simulator's primary experimental output is what this package
// captures.
//
// Every instrument type is nil-safe: calling Add/Set/Observe on a nil
// pointer is a no-op, and a nil *Sink (or nil *Registry / *Tracer) is the
// zero-cost off switch. Instrumented code holds a single sink pointer and
// branches once per operation batch — when no sink is attached the hot
// paths are byte-identical to uninstrumented code (guarded by the
// BenchmarkNilSinkOverhead pair and the CI overhead gate).
//
// All instruments are safe for concurrent use: counters and gauges are
// single atomics, histogram buckets are atomic, and registry lookups are
// mutex-protected (lookups are expected at setup time, not per-event; hot
// code should resolve its instruments once and hold the pointers).
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set to arbitrary values.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d to the gauge. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of exponential histogram buckets. Bucket i
// holds observations in (histBase*histGrowth^(i-1), histBase*histGrowth^i];
// bucket 0 holds everything <= histBase and the last bucket is unbounded.
// With base 1e-12 and growth 10 the range spans picoseconds to kiloseconds,
// which covers every duration and energy this simulator produces.
const (
	histBuckets = 18
	histBase    = 1e-12
	histGrowth  = 10
)

// Histogram accumulates float64 observations into fixed exponential
// buckets plus an exact sum/count/min/max.
type Histogram struct {
	counts  [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // stores math.Float64bits; initialized lazily
	maxBits atomic.Uint64
	hasObs  atomic.Bool
}

// bucketOf returns the bucket index for v.
func bucketOf(v float64) int {
	if v <= histBase || math.IsNaN(v) {
		return 0
	}
	exp := math.Floor(math.Log(v/histBase) / math.Log(histGrowth))
	if exp >= histBuckets-2 { // covers +Inf, whose float->int conversion is unspecified
		return histBuckets - 1
	}
	return 1 + int(exp)
}

// Observe records v. No-op on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if h.hasObs.CompareAndSwap(false, true) {
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
		return
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Min and Max return the observation extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || !h.hasObs.Load() {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

func (h *Histogram) Max() float64 {
	if h == nil || !h.hasObs.Load() {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// BucketCounts returns the per-bucket observation counts (all zero for
// nil). Bucket i's inclusive upper bound is HistogramUpperBounds()[i];
// the last bucket is unbounded.
func (h *Histogram) BucketCounts() [histBuckets]int64 {
	var out [histBuckets]int64
	if h == nil {
		return out
	}
	for i := range out {
		out[i] = h.counts[i].Load()
	}
	return out
}

// HistogramUpperBounds returns the inclusive upper bounds of the fixed
// exponential bucket layout. The final bucket's bound is +Inf. Bounds are
// computed with math.Pow10 (table-exact) rather than histBase*Pow(10, i),
// which rounds some decades to 9.999...e-06 and would leak ugly `le`
// values into the exposition.
func HistogramUpperBounds() [histBuckets]float64 {
	var ubs [histBuckets]float64
	baseExp := int(math.Round(math.Log10(histBase)))
	for i := 0; i < histBuckets-1; i++ {
		ubs[i] = math.Pow10(baseExp + i)
	}
	ubs[histBuckets-1] = math.Inf(1)
	return ubs
}

// Registry maps names to instruments. The zero value is not usable; call
// NewRegistry. A nil *Registry hands out nil instruments, so lookups
// against an absent registry compose with the nil-safe instrument methods.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram

	// Labeled families (vec.go).
	ctrVecs   map[string]*CounterVec
	gaugeVecs map[string]*GaugeVec
	histVecs  map[string]*HistogramVec

	// kinds maps every registered name to its instrument kind; conflicts
	// latches the typed error of each rejected registration (see
	// KindConflictError / LabelMismatchError in vec.go).
	kinds     map[string]string
	conflicts map[string]error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:      make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		hists:     make(map[string]*Histogram),
		ctrVecs:   make(map[string]*CounterVec),
		gaugeVecs: make(map[string]*GaugeVec),
		histVecs:  make(map[string]*HistogramVec),
		kinds:     make(map[string]string),
		conflicts: make(map[string]error),
	}
}

// Counter returns (creating if needed) the named counter; nil from a nil
// registry, and nil (with a latched KindConflictError) when the name is
// already registered as another kind.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "counter") {
		return nil
	}
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil from a nil
// registry or on a kind conflict (latched as a typed error).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "gauge") {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil from a
// nil registry or on a kind conflict (latched as a typed error).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "histogram") {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramSnapshot is one histogram's exported state.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Snapshot is a point-in-time copy of every instrument, with
// deterministic (sorted) iteration order when marshaled.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current values. Safe on a nil registry
// (returns empty maps). Vec children appear under `name{k="v",...}` keys
// with label sets rendered in registered key order — combined with
// encoding/json's sorted map-key marshaling, snapshot output is fully
// deterministic for labeled and unlabeled instruments alike.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = histSnapshot(h)
	}
	for name, cv := range r.ctrVecs {
		for _, c := range cv.v.children() {
			s.Counters[name+labelString(cv.v.keys, c.values)] = c.inst.Value()
		}
	}
	for name, gv := range r.gaugeVecs {
		for _, c := range gv.v.children() {
			s.Gauges[name+labelString(gv.v.keys, c.values)] = c.inst.Value()
		}
	}
	for name, hv := range r.histVecs {
		for _, c := range hv.v.children() {
			s.Histograms[name+labelString(hv.v.keys, c.values)] = histSnapshot(c.inst)
		}
	}
	return s
}

func histSnapshot(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(), Sum: h.Sum(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
	}
}

// WriteJSON writes the registry snapshot as indented JSON with sorted
// keys (encoding/json sorts map keys, so the output is deterministic).
// It returns the registry's latched registration errors (Err) if any —
// a conflicted registry cannot be exported silently.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return err
	}
	return r.Err()
}
