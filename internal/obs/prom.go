package obs

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition (the format every Prometheus-family
// scraper — Prometheus, VictoriaMetrics, the OpenMetrics parsers — reads
// from GET /metrics).
//
// The output is byte-deterministic for a given registry state: metric
// families are emitted in sorted (sanitized) name order, a vec's children
// in sorted label-value order, and every float is rendered with
// strconv.FormatFloat(v, 'g', -1, 64). Determinism is load-bearing here
// the same way it is for the fault reports: the CI smoke test diffs and
// parses scrapes, and future PRs byte-diff exposition goldens.
//
// Conventions applied:
//   - names are sanitized to [a-zA-Z0-9_:] (dots become underscores);
//   - counters gain the `_total` suffix unless already present;
//   - histograms expose cumulative `_bucket{le="..."}` series plus
//     `_sum` and `_count`, with the fixed exponential bucket layout of
//     this package (18 buckets, 1e-12 .. 1e4, then +Inf);
//   - label values are escaped per the text-format rules.

// WriteProm writes the registry in Prometheus text exposition format.
// It returns the registry's latched registration errors (Err) if any,
// after writing everything that is well-formed.
func (r *Registry) WriteProm(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if r != nil {
		r.writePromLocked(bw)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return r.Err()
}

// promFamily is one exposition unit: a TYPE header plus its sample lines.
type promFamily struct {
	name  string // sanitized family name (without _total et al.)
	kind  string // "counter", "gauge", "histogram"
	lines []string
}

func (r *Registry) writePromLocked(w *bufio.Writer) {
	r.mu.Lock()
	fams := make([]promFamily, 0,
		len(r.ctrs)+len(r.gauges)+len(r.hists)+len(r.ctrVecs)+len(r.gaugeVecs)+len(r.histVecs))

	for name, c := range r.ctrs {
		fams = append(fams, counterFamily(name, []promSample{{labels: "", value: float64(c.Value())}}))
	}
	for name, cv := range r.ctrVecs {
		samples := make([]promSample, 0, 4)
		for _, ch := range cv.v.children() {
			samples = append(samples, promSample{
				labels: labelString(cv.v.keys, ch.values), value: float64(ch.inst.Value())})
		}
		fams = append(fams, counterFamily(name, samples))
	}
	for name, g := range r.gauges {
		fams = append(fams, gaugeFamily(name, []promSample{{labels: "", value: g.Value()}}))
	}
	for name, gv := range r.gaugeVecs {
		samples := make([]promSample, 0, 4)
		for _, ch := range gv.v.children() {
			samples = append(samples, promSample{
				labels: labelString(gv.v.keys, ch.values), value: ch.inst.Value()})
		}
		fams = append(fams, gaugeFamily(name, samples))
	}
	for name, h := range r.hists {
		fams = append(fams, histFamily(name, []promHist{{labels: "", h: h}}))
	}
	for name, hv := range r.histVecs {
		hs := make([]promHist, 0, 4)
		for _, ch := range hv.v.children() {
			hs = append(hs, promHist{labels: labelString(hv.v.keys, ch.values), h: ch.inst})
		}
		fams = append(fams, histFamily(name, hs))
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if len(f.lines) == 0 {
			continue
		}
		w.WriteString("# TYPE ")
		w.WriteString(f.name)
		w.WriteByte(' ')
		w.WriteString(f.kind)
		w.WriteByte('\n')
		for _, l := range f.lines {
			w.WriteString(l)
			w.WriteByte('\n')
		}
	}
}

type promSample struct {
	labels string // rendered {k="v",...} block, or ""
	value  float64
}

type promHist struct {
	labels string
	h      *Histogram
}

func counterFamily(name string, samples []promSample) promFamily {
	n := promName(name)
	if !strings.HasSuffix(n, "_total") {
		n += "_total"
	}
	lines := make([]string, len(samples))
	for i, s := range samples {
		lines[i] = n + s.labels + " " + formatPromValue(s.value)
	}
	return promFamily{name: n, kind: "counter", lines: lines}
}

func gaugeFamily(name string, samples []promSample) promFamily {
	n := promName(name)
	lines := make([]string, len(samples))
	for i, s := range samples {
		lines[i] = n + s.labels + " " + formatPromValue(s.value)
	}
	return promFamily{name: n, kind: "gauge", lines: lines}
}

func histFamily(name string, hs []promHist) promFamily {
	n := promName(name)
	ubs := HistogramUpperBounds()
	var lines []string
	for _, ph := range hs {
		counts := ph.h.BucketCounts()
		var cum int64
		for i, ub := range ubs {
			cum += counts[i]
			lines = append(lines, n+"_bucket"+withLabel(ph.labels, "le", formatPromValue(ub))+
				" "+strconv.FormatInt(cum, 10))
		}
		lines = append(lines,
			n+"_sum"+ph.labels+" "+formatPromValue(ph.h.Sum()),
			n+"_count"+ph.labels+" "+strconv.FormatInt(ph.h.Count(), 10))
	}
	return promFamily{name: n, kind: "histogram", lines: lines}
}

// withLabel appends one more label pair to an already-rendered label
// block (possibly empty).
func withLabel(labels, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// formatPromValue renders a float the way Prometheus text format expects:
// shortest round-trip representation, with +Inf/-Inf/NaN spelled out.
func formatPromValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promName sanitizes a registry name into a legal Prometheus metric name:
// every character outside [a-zA-Z0-9_:] becomes '_' (so the registry's
// dotted names map 1:1 onto underscore names), and a leading digit gains
// a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
