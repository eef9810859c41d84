package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"wavepim/internal/obs"
)

// tracer records the benchmark's own spans around the public calls it
// makes. Span names follow <pkg>.<Func> (wavepim.Session.Step,
// wavepim.Run/Acoustic_4/PIM-2GB, cluster.POST /v1/jobs) so in-program
// tracing can later reuse them. A nil *tracer records nothing. Safe for
// concurrent use.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

// spanRec is one span: times are offsets from the tracer's epoch, parent
// is the index of the enclosing span (-1 for a root), track its lane.
type spanRec struct {
	name       string
	start, end time.Duration
	parent     int
	track      int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span starting now and returns its index (-1 on a nil
// tracer).
func (t *tracer) begin(name string, parent, track int) int {
	return t.beginAt(name, parent, track, time.Now())
}

// beginAt opens a span that started at the given time.
func (t *tracer) beginAt(name string, parent, track int, at time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, start: at.Sub(t.epoch), end: -1, parent: parent, track: track})
	return len(t.spans) - 1
}

// end closes span i now.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].end = time.Since(t.epoch)
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far, with parent
// indexes remapped to the returned slice (-1 when the parent is open).
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make([]int, len(t.spans))
	var out []spanRec
	for i, s := range t.spans {
		idx[i] = -1
		if s.end < 0 {
			continue
		}
		idx[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].parent; p >= 0 {
			out[i].parent = idx[p]
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func selfTimes(spans []spanRec) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, reach := time.Duration(0), s.start
		for _, v := range ivs {
			lo := max(v.lo, reach)
			if v.hi > lo {
				covered += v.hi - lo
				reach = v.hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// spanStat is one span name's totals in layers.json.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"self_share_pct"`
}

// layersDoc is layers.json: where a traced run's time went.
type layersDoc struct {
	Workload         string             `json:"workload"`
	TracedWallMs     float64            `json:"traced_wall_ms"`
	SpanSelfSumMs    float64            `json:"span_self_sum_ms"`
	ReconcileErrPct  float64            `json:"reconcile_err_pct"`
	Spans            []spanStat         `json:"spans"`
	ProfileCPUSec    float64            `json:"profile_cpu_seconds"`
	SelfSharePct     map[string]float64 `json:"self_share_pct"`
	CumSharePct      map[string]float64 `json:"cum_share_pct"`
	BareOpMsP50      float64            `json:"bare_op_ms_p50"`
	TracedOpMsP50    float64            `json:"traced_op_ms_p50"`
	TraceOverheadPct float64            `json:"trace_overhead_pct"`
}

// finishTrace turns a traced run's spans and CPU profiles into per-layer
// metrics and writes trace.json (a Chrome trace of the spans, through
// internal/obs) and layers.json. wallMs is the traced time measured
// apart from the spans. When the traced calls ran one after another
// (overlap false), the spans' self times must add up to it within 5%:
// what they leave out is time the benchmark spent between calls. Spans
// of concurrent jobs overlap, so their sum is no wall time and is not
// reconciled. The profile shares must sum to 100%.
func (e *env) finishTrace(o *outcome, wallMs float64, overlap bool, bare, traced []float64, profiles []string) error {
	spans := e.tr.snapshot()
	self := selfTimes(spans)
	doc := layersDoc{Workload: e.workload, TracedWallMs: wallMs,
		SelfSharePct: map[string]float64{}, CumSharePct: map[string]float64{}}
	byName := map[string]*spanStat{}
	ot := obs.NewTracer()
	for i, s := range spans {
		st := byName[s.name]
		if st == nil {
			st = &spanStat{Name: s.name}
			byName[s.name] = st
		}
		st.Count++
		st.SelfMs += float64(self[i]) / float64(time.Millisecond)
		doc.SpanSelfSumMs += float64(self[i]) / float64(time.Millisecond)
		cat, _, _ := strings.Cut(s.name, ".")
		ot.Span(s.name, cat, s.start.Seconds(), (s.end - s.start).Seconds(), s.track)
	}
	for _, st := range byName {
		st.Share = 100 * st.SelfMs / doc.SpanSelfSumMs
		doc.Spans = append(doc.Spans, *st)
	}
	sort.Slice(doc.Spans, func(a, b int) bool { return doc.Spans[a].SelfMs > doc.Spans[b].SelfMs })
	if !overlap {
		doc.ReconcileErrPct = 100 * (doc.SpanSelfSumMs - wallMs) / wallMs
		if math.Abs(doc.ReconcileErrPct) > 5 || math.IsNaN(doc.ReconcileErrPct) {
			o.check(fmt.Errorf("span self times sum to %.1f ms, traced wall time is %.1f ms", doc.SpanSelfSumMs, wallMs))
		}
	}
	o.layer["trace.reconcile_err_pct"] = doc.ReconcileErrPct

	prof, err := readProfiles(profiles)
	if err != nil {
		return err
	}
	doc.ProfileCPUSec = prof.total
	var shares float64
	for _, l := range profileLayers {
		v := prof.share(prof.self[l])
		doc.SelfSharePct[l] = v
		o.layer[l+".cpu_share"] = v
		shares += v
	}
	if prof.total > 0 && math.Abs(shares-100) > 1e-6 {
		o.check(fmt.Errorf("profile layer shares sum to %.6f%%, not 100%%", shares))
	}
	for _, c := range cumMarkers {
		v := prof.share(prof.cum[c.metric])
		doc.CumSharePct[c.metric] = v
		o.layer[c.metric] = v
	}

	doc.BareOpMsP50, doc.TracedOpMsP50 = percentile(bare, 50), percentile(traced, 50)
	doc.TraceOverheadPct = 100 * (doc.TracedOpMsP50/doc.BareOpMsP50 - 1)
	o.layer["trace.overhead_pct"] = doc.TraceOverheadPct
	fmt.Fprintf(e.log, "  traced: %d spans, self times %.0f ms over %.0f ms of wall time; %.2f s of CPU samples; tracing overhead %.2f%% on the median operation\n",
		len(spans), doc.SpanSelfSumMs, wallMs, prof.total, doc.TraceOverheadPct)

	f, err := os.Create(filepath.Join(e.outDir, "trace.json"))
	if err != nil {
		return err
	}
	if err := ot.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(e.outDir, "layers.json"), doc)
}

// profile is CPU time attributed to layers, in seconds of samples.
type profile struct {
	total float64
	self  map[string]float64 // by profileLayers entry
	cum   map[string]float64 // by cumMarkers metric
}

func (p profile) share(sec float64) float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * sec / p.total
}

// readProfiles attributes the samples of every CPU profile file, read
// through `go tool pprof -traces`, which ships with the toolchain.
func readProfiles(files []string) (profile, error) {
	p := profile{self: map[string]float64{}, cum: map[string]float64{}}
	for _, f := range files {
		out, err := exec.Command("go", "tool", "pprof", "-traces", f).Output()
		if err != nil {
			return p, fmt.Errorf("go tool pprof -traces %s: %w", f, err)
		}
		if err := p.addTraces(strings.NewReader(string(out))); err != nil {
			return p, fmt.Errorf("%s: %w", f, err)
		}
	}
	return p, nil
}

// addTraces attributes the samples of one `pprof -traces` listing: blocks
// separated by "-----------+" lines, each a sample's CPU time followed by
// its frames, innermost first.
func (p *profile) addTraces(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		weight float64
		frames []string
		inBody bool
	)
	flush := func() {
		if len(frames) > 0 {
			p.add(weight, frames)
		}
		frames = frames[:0]
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBody, weight = true, 0
			continue
		}
		if !inBody || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(frames) == 0 {
			if len(fields) < 2 {
				return fmt.Errorf("malformed sample line %q", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return fmt.Errorf("sample weight %q: %w", fields[0], err)
			}
			weight = d.Seconds()
			fields = fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	return sc.Err()
}

// add attributes one sample: its self layer is the layer of its
// innermost wavepim/internal frame ("runtime" if it has none), and it
// counts toward each cumulative marker any of its frames matches.
func (p *profile) add(w float64, frames []string) {
	p.total += w
	self := "runtime"
	for _, f := range frames {
		if l, ok := layerOf(f); ok {
			self = l
			break
		}
	}
	p.self[self] += w
	for _, c := range cumMarkers {
		if anyFrame(frames, c.frames) {
			p.cum[c.metric] += w
		}
	}
}

func anyFrame(frames, markers []string) bool {
	for _, f := range frames {
		for _, m := range markers {
			if strings.Contains(f, m) {
				return true
			}
		}
	}
	return false
}

// layerOf maps a frame of package wavepim/internal/[pim/]<pkg>[/sub] to
// <pkg> when it is one of profileLayers, else to "other"; frames outside
// wavepim/internal have no layer.
func layerOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, "wavepim/internal/")
	if !ok {
		return "", false
	}
	rest = strings.TrimPrefix(rest, "pim/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range profileLayers {
		if l == rest && l != "other" && l != "runtime" {
			return l, true
		}
	}
	return "other", true
}
