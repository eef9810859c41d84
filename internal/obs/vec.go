package obs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Labeled instruments ("vecs"). A vec is a family of instruments of one
// kind sharing a name and a fixed, ordered set of label keys; With resolves
// one child per label-value tuple. The design mirrors Prometheus client
// conventions but stays registry-local and allocation-light: hot code
// resolves its child once (With at setup time) and holds the instrument
// pointer, exactly like the unlabeled instruments.
//
// All vec types are nil-safe: With on a nil vec returns a nil instrument,
// which no-ops, so the nil-sink fast path extends through labels.
//
// Label cardinality is the caller's contract: keys like "phase", "kind",
// "equation", and "rung" are drawn from small enumerated sets. Block- or
// run-indexed labels must be capped by the producer (see DESIGN.md §10);
// the registry does not police cardinality.

// KindConflictError reports a metric name registered twice with different
// instrument kinds (for example Counter("x") after Gauge("x")). The second
// registration yields a nil (no-op) instrument and the error is latched on
// the registry — surfaced by Registry.Err, WriteJSON, and WriteProm — so
// the conflict cannot silently fork the exposition.
type KindConflictError struct {
	Name      string // the conflicted metric name
	Existing  string // kind registered first
	Requested string // kind of the rejected registration
}

func (e *KindConflictError) Error() string {
	return fmt.Sprintf("obs: metric %q already registered as %s, re-registered as %s",
		e.Name, e.Existing, e.Requested)
}

// LabelMismatchError reports a vec registered twice with different label
// keys, or a With call whose value count does not match the vec's keys.
type LabelMismatchError struct {
	Name string
	Want []string // the registered label keys
	Got  []string // the conflicting keys (or With values, for arity errors)
	Use  string   // "register" or "with"
}

func (e *LabelMismatchError) Error() string {
	return fmt.Sprintf("obs: vec %q (%s): label keys %v do not match registered %v",
		e.Name, e.Use, e.Got, e.Want)
}

// labelSep joins label values into a child key. Label values containing
// the unit separator would alias; values are expected to be short
// enumerated identifiers, not free text.
const labelSep = "\x1f"

// vecChild pairs a child instrument with its label values (kept for
// deterministic exposition).
type vecChild[T any] struct {
	values []string
	inst   T
}

// vec is the generic core shared by the three concrete vec types.
type vec[T any] struct {
	name string
	keys []string
	reg  *Registry // for latching With-arity errors; never nil on a live vec

	mu   sync.RWMutex
	kids map[string]*vecChild[T]
}

func newVec[T any](reg *Registry, name string, keys []string) *vec[T] {
	return &vec[T]{name: name, keys: keys, reg: reg, kids: make(map[string]*vecChild[T])}
}

// with resolves (creating via mk) the child for one label-value tuple.
func (v *vec[T]) with(mk func() T, values []string) (T, bool) {
	var zero T
	if len(values) != len(v.keys) {
		v.reg.latchConflict(v.name+"/arity", &LabelMismatchError{
			Name: v.name, Want: v.keys, Got: append([]string(nil), values...), Use: "with",
		})
		return zero, false
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c, ok := v.kids[key]
	v.mu.RUnlock()
	if ok {
		return c.inst, true
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.kids[key]; ok {
		return c.inst, true
	}
	c = &vecChild[T]{values: append([]string(nil), values...), inst: mk()}
	v.kids[key] = c
	return c.inst, true
}

// children returns the vec's children sorted by label-value tuple — the
// deterministic iteration order every exporter uses.
func (v *vec[T]) children() []*vecChild[T] {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*vecChild[T], 0, len(v.kids))
	keys := make([]string, 0, len(v.kids))
	for k := range v.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, v.kids[k])
	}
	return out
}

// labelString renders one child's label set as {k1="v1",k2="v2"} with
// escaped values — the exposition-format label block, also used as the
// child's key in Snapshot maps.
func labelString(keys, values []string) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format label escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct{ v *vec[*Counter] }

// With resolves the child counter for the given label values (in key
// order). Nil vec or wrong arity returns a nil (no-op) counter; arity
// errors are latched on the registry.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	c, _ := cv.v.with(func() *Counter { return &Counter{} }, values)
	return c
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct{ v *vec[*Gauge] }

// With resolves the child gauge (nil on nil vec or arity mismatch).
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	g, _ := gv.v.with(func() *Gauge { return &Gauge{} }, values)
	return g
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct{ v *vec[*Histogram] }

// With resolves the child histogram (nil on nil vec or arity mismatch).
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	h, _ := hv.v.with(func() *Histogram { return &Histogram{} }, values)
	return h
}

// CounterVec returns (creating if needed) the named counter family with
// the given label keys. Nil from a nil registry; nil (with a latched
// typed error) when the name is already registered as another kind or
// with different keys.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "countervec") {
		return nil
	}
	cv, ok := r.ctrVecs[name]
	if !ok {
		cv = &CounterVec{v: newVec[*Counter](r, name, append([]string(nil), keys...))}
		r.ctrVecs[name] = cv
	} else if !sameKeys(cv.v.keys, keys) {
		r.latchConflictLocked(name, &LabelMismatchError{
			Name: name, Want: cv.v.keys, Got: append([]string(nil), keys...), Use: "register"})
		return nil
	}
	return cv
}

// GaugeVec returns (creating if needed) the named gauge family.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "gaugevec") {
		return nil
	}
	gv, ok := r.gaugeVecs[name]
	if !ok {
		gv = &GaugeVec{v: newVec[*Gauge](r, name, append([]string(nil), keys...))}
		r.gaugeVecs[name] = gv
	} else if !sameKeys(gv.v.keys, keys) {
		r.latchConflictLocked(name, &LabelMismatchError{
			Name: name, Want: gv.v.keys, Got: append([]string(nil), keys...), Use: "register"})
		return nil
	}
	return gv
}

// HistogramVec returns (creating if needed) the named histogram family.
func (r *Registry) HistogramVec(name string, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.registerKind(name, "histogramvec") {
		return nil
	}
	hv, ok := r.histVecs[name]
	if !ok {
		hv = &HistogramVec{v: newVec[*Histogram](r, name, append([]string(nil), keys...))}
		r.histVecs[name] = hv
	} else if !sameKeys(hv.v.keys, keys) {
		r.latchConflictLocked(name, &LabelMismatchError{
			Name: name, Want: hv.v.keys, Got: append([]string(nil), keys...), Use: "register"})
		return nil
	}
	return hv
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// registerKind records the kind of a name, or latches a KindConflictError
// and returns false when the name is already claimed by a different kind.
// Caller holds r.mu.
func (r *Registry) registerKind(name, kind string) bool {
	if existing, ok := r.kinds[name]; ok {
		if existing != kind {
			r.latchConflictLocked(name, &KindConflictError{Name: name, Existing: existing, Requested: kind})
			return false
		}
		return true
	}
	r.kinds[name] = kind
	return true
}

// latchConflict records a registration error under the registry lock.
func (r *Registry) latchConflict(key string, err error) {
	r.mu.Lock()
	r.latchConflictLocked(key, err)
	r.mu.Unlock()
}

// latchConflictLocked keeps the first error per key (caller holds r.mu).
func (r *Registry) latchConflictLocked(key string, err error) {
	if _, dup := r.conflicts[key]; !dup {
		r.conflicts[key] = err
	}
}

// Err returns the registration errors latched so far (kind conflicts,
// label mismatches), joined in sorted-name order, or nil. Exporters
// return it so a conflicted registry cannot be scraped silently.
func (r *Registry) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.conflicts) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.conflicts))
	for n := range r.conflicts {
		names = append(names, n)
	}
	sort.Strings(names)
	errs := make([]error, len(names))
	for i, n := range names {
		errs[i] = r.conflicts[n]
	}
	return errors.Join(errs...)
}

// Sink-level vec accessors (nil-safe, like the unlabeled ones).

// CounterVec resolves a registry counter family; nil from a nil sink.
func (s *Sink) CounterVec(name string, keys ...string) *CounterVec {
	if s == nil {
		return nil
	}
	return s.Reg.CounterVec(name, keys...)
}

// HistogramVec resolves a registry histogram family; nil from a nil sink.
func (s *Sink) HistogramVec(name string, keys ...string) *HistogramVec {
	if s == nil {
		return nil
	}
	return s.Reg.HistogramVec(name, keys...)
}
