package obs

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// promTestRegistry builds the registry behind the exposition golden:
// every instrument kind, labeled and unlabeled, with a label value that
// needs escaping and a counter that already carries _total.
func promTestRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sim.instr_count").Add(42)
	r.Counter("requests_total").Add(7)
	r.Gauge("sim.total_seconds").Set(1.25e-3)
	cv := r.CounterVec("sim.fault.rung_events", "rung")
	cv.With("ecc").Add(5)
	cv.With("rollback").Inc()
	cv.With(`weird"rung\n`).Inc() // exercises label escaping
	r.GaugeVec("pool.size", "state").With("idle").Set(3)
	r.GaugeVec("pool.size", "state").With("busy").Set(1)
	h := r.Histogram("dram.seconds")
	h.Observe(5e-13) // first bucket
	h.Observe(2e-9)
	h.Observe(1e30) // overflow bucket
	hv := r.HistogramVec("sim.phase.span_seconds", "kind", "phase")
	hv.With("blocks", "flux").Observe(1e-6)
	hv.With("blocks", "flux").Observe(3e-6)
	hv.With("dram", "fetch").Observe(1e-4)
	return r
}

func TestWritePromGolden(t *testing.T) {
	var b strings.Builder
	if err := promTestRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -run Golden -update` to create)", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden (re-bless with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// Byte determinism: a second registry built the same way must
	// serialize identically.
	var b2 strings.Builder
	if err := promTestRegistry().WriteProm(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != got {
		t.Fatal("two identical registries produced different exposition")
	}
}

// promSeries is one parsed sample line.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm is a tiny hand-rolled Prometheus text-format parser — enough
// of the grammar to validate our own exposition without importing a
// client library. It enforces: TYPE headers precede their samples, names
// are legal, label blocks are well-formed with escaped values, and every
// sample belongs to a declared family.
func parseProm(t *testing.T, text string) (types map[string]string, series []promSeries) {
	t.Helper()
	types = map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := parts[2], parts[3]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown kind %q", ln+1, kind)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", ln+1, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s := promSeries{labels: map[string]string{}}
		rest := line
		if i := strings.IndexAny(rest, "{ "); i < 0 {
			t.Fatalf("line %d: no value separator: %q", ln+1, line)
		} else {
			s.name = rest[:i]
			rest = rest[i:]
		}
		for i, c := range s.name {
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
				(i > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("line %d: illegal metric name %q", ln+1, s.name)
			}
		}
		if strings.HasPrefix(rest, "{") {
			end := strings.Index(rest, "}")
			if end < 0 {
				t.Fatalf("line %d: unterminated label block: %q", ln+1, line)
			}
			for _, pair := range splitLabels(t, ln+1, rest[1:end]) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					t.Fatalf("line %d: malformed label %q", ln+1, pair)
				}
				s.labels[k] = unescapeLabel(t, ln+1, v[1:len(v)-1])
			}
			rest = rest[end+1:]
		}
		rest = strings.TrimPrefix(rest, " ")
		var err error
		switch rest {
		case "+Inf":
			s.value = math.Inf(1)
		case "-Inf":
			s.value = math.Inf(-1)
		case "NaN":
			s.value = math.NaN()
		default:
			if s.value, err = strconv.ParseFloat(rest, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, rest, err)
			}
		}
		fam := s.name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.name, suf); base != s.name && types[base] == "histogram" {
				fam = base
			}
		}
		if _, ok := types[fam]; !ok {
			t.Fatalf("line %d: sample %q has no TYPE header", ln+1, s.name)
		}
		series = append(series, s)
	}
	return types, series
}

// splitLabels splits "k1=\"v1\",k2=\"v2\"" on commas outside quotes.
func splitLabels(t *testing.T, ln int, s string) []string {
	var out []string
	var cur strings.Builder
	inQ, esc := false, false
	for _, c := range s {
		switch {
		case esc:
			cur.WriteRune(c)
			esc = false
		case c == '\\' && inQ:
			cur.WriteRune(c)
			esc = true
		case c == '"':
			cur.WriteRune(c)
			inQ = !inQ
		case c == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(c)
		}
	}
	if inQ {
		t.Fatalf("line %d: unterminated quote in labels %q", ln, s)
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func unescapeLabel(t *testing.T, ln int, v string) string {
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] != '\\' {
			b.WriteByte(v[i])
			continue
		}
		i++
		if i >= len(v) {
			t.Fatalf("line %d: dangling escape in %q", ln, v)
		}
		switch v[i] {
		case '\\':
			b.WriteByte('\\')
		case '"':
			b.WriteByte('"')
		case 'n':
			b.WriteByte('\n')
		default:
			t.Fatalf("line %d: unknown escape \\%c", ln, v[i])
		}
	}
	return b.String()
}

func TestWritePromParses(t *testing.T) {
	var b strings.Builder
	if err := promTestRegistry().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	types, series := parseProm(t, b.String())

	find := func(name string, labels map[string]string) *promSeries {
		for i := range series {
			s := &series[i]
			if s.name != name || len(s.labels) != len(labels) {
				continue
			}
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
				}
			}
			if match {
				return s
			}
		}
		t.Fatalf("series %s%v not found", name, labels)
		return nil
	}

	// Counters carry _total exactly once; values survive the round trip.
	if types["sim_instr_count_total"] != "counter" {
		t.Fatalf("types = %v", types)
	}
	if s := find("sim_instr_count_total", nil); s.value != 42 {
		t.Fatalf("counter value %v", s.value)
	}
	if s := find("requests_total", nil); s.value != 7 {
		t.Fatalf("pre-suffixed counter %v", s.value)
	}
	if s := find("sim_fault_rung_events_total", map[string]string{"rung": "ecc"}); s.value != 5 {
		t.Fatalf("labeled counter %v", s.value)
	}
	// The escaped label value round-trips through the parser.
	find("sim_fault_rung_events_total", map[string]string{"rung": `weird"rung\n`})
	if s := find("pool_size", map[string]string{"state": "idle"}); s.value != 3 {
		t.Fatalf("labeled gauge %v", s.value)
	}

	// Histogram conventions: cumulative monotone buckets ending at +Inf,
	// +Inf bucket == _count, one _sum.
	for _, hist := range []struct {
		fam    string
		labels map[string]string
		count  float64
	}{
		{"dram_seconds", nil, 3},
		{"sim_phase_span_seconds", map[string]string{"kind": "blocks", "phase": "flux"}, 2},
	} {
		var buckets []promSeries
		for _, s := range series {
			if s.name != hist.fam+"_bucket" {
				continue
			}
			ok := true
			for k, v := range hist.labels {
				if s.labels[k] != v {
					ok = false
				}
			}
			if ok {
				buckets = append(buckets, s)
			}
		}
		if len(buckets) != histBuckets {
			t.Fatalf("%s: %d buckets, want %d", hist.fam, len(buckets), histBuckets)
		}
		prevLe, prevCum := math.Inf(-1), float64(0)
		for _, b := range buckets {
			le, err := strconv.ParseFloat(strings.Replace(b.labels["le"], "+Inf", "Inf", 1), 64)
			if err != nil {
				t.Fatalf("%s: bad le %q", hist.fam, b.labels["le"])
			}
			if le <= prevLe {
				t.Fatalf("%s: le not increasing: %v after %v", hist.fam, le, prevLe)
			}
			if b.value < prevCum {
				t.Fatalf("%s: bucket counts not cumulative", hist.fam)
			}
			prevLe, prevCum = le, b.value
		}
		if !math.IsInf(prevLe, 1) {
			t.Fatalf("%s: last bucket le = %v, want +Inf", hist.fam, prevLe)
		}
		if prevCum != hist.count {
			t.Fatalf("%s: +Inf bucket %v != expected count %v", hist.fam, prevCum, hist.count)
		}
		cnt := find(hist.fam+"_count", hist.labels)
		if cnt.value != hist.count {
			t.Fatalf("%s_count = %v, want %v", hist.fam, cnt.value, hist.count)
		}
		find(hist.fam+"_sum", hist.labels)
	}

	// Families must be sorted by name in the raw text.
	var headerOrder []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			headerOrder = append(headerOrder, strings.Fields(line)[2])
		}
	}
	if !sort.StringsAreSorted(headerOrder) {
		t.Fatalf("families not sorted: %v", headerOrder)
	}
}

func TestWritePromNil(t *testing.T) {
	var b strings.Builder
	if err := (*Registry)(nil).WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"sim.phase.span_seconds": "sim_phase_span_seconds",
		"9lives":                 "_9lives",
		"a-b c":                  "a_b_c",
		"ok_name:sub":            "ok_name:sub",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHistogramUpperBounds(t *testing.T) {
	ubs := HistogramUpperBounds()
	if ubs[0] != histBase {
		t.Fatalf("ubs[0] = %v", ubs[0])
	}
	for i := 1; i < histBuckets-1; i++ {
		if ratio := ubs[i] / ubs[i-1]; math.Abs(ratio-histGrowth) > 1e-9 {
			t.Fatalf("bucket %d growth %v", i, ratio)
		}
	}
	if !math.IsInf(ubs[histBuckets-1], 1) {
		t.Fatal("last bound not +Inf")
	}
	// An observation must land in the bucket its bound claims.
	h := NewRegistry().Histogram("x")
	h.Observe(2e-9)
	counts := h.BucketCounts()
	idx := -1
	for i, c := range counts {
		if c == 1 {
			idx = i
		}
	}
	if idx < 0 || ubs[idx] < 2e-9 || (idx > 0 && ubs[idx-1] >= 2e-9) {
		t.Fatalf("observation 2e-9 landed in bucket %d (bound %v)", idx, fmt.Sprint(ubs))
	}
}
