package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// cannedTraces is `go tool pprof -traces` output trimmed to five samples.
const cannedTraces = `File: wavebench
Type: cpu
Duration: 2.16s, Total samples = 100ms (4.63%)
-----------+-------------------------------------------------------
      40ms   wavepim/internal/pim/xbar.(*Block).ArithSel
             wavepim/internal/pim/sim.(*Engine).arith
             wavepim/internal/pim/sim.(*Engine).ExecBlocksCtx.func1
-----------+-------------------------------------------------------
      20ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             wavepim/internal/pim/intercon.(*HTree).Path
             wavepim/internal/pim/sim.(*Engine).ExecTransfers
             wavepim/internal/wavepim.(*Session).Step
-----------+-------------------------------------------------------
      10ms   sync/atomic.(*Int32).Add (inline)
             wavepim/internal/cluster/trace.ID
             wavepim/internal/cluster.(*cjob).view
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   wavepim/internal/mesh.(*Mesh).NodePosition
             main.main
-----------+-------------------------------------------------------
`

func TestProfileLayerAttribution(t *testing.T) {
	p := profile{self: map[string]float64{}, cum: map[string]float64{}}
	if err := p.addTraces(strings.NewReader(cannedTraces)); err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.total-0.1) > 1e-12 {
		t.Fatalf("total %g s, want 0.1", p.total)
	}
	want := map[string]float64{"xbar": 40, "intercon": 20, "cluster": 10, "runtime": 20, "other": 10}
	var sum float64
	for _, l := range profileLayers {
		got := p.share(p.self[l])
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("%s self share %g%%, want %g%%", l, got, want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self shares sum to %g%%", sum)
	}
	for metric, w := range map[string]float64{
		"sim.exec_blocks_cum": 40, "sim.exec_transfers_cum": 20, "runtime.gc_cpu_share": 20,
	} {
		if got := p.share(p.cum[metric]); math.Abs(got-w) > 1e-9 {
			t.Errorf("%s %g%%, want %g%%", metric, got, w)
		}
	}
	if err := p.addTraces(strings.NewReader("-----------+---\n   bogus   frame\n")); err == nil {
		t.Error("a malformed sample weight parsed")
	}
}

func TestReconcileCatchesTimeBetweenCalls(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name    string
		wallMs  float64
		overlap bool
		ok      bool
	}{
		{"calls cover the wall time", 100, false, true},
		{"4% between calls", 100 / 0.96, false, true},
		{"10% between calls", 100 / 0.9, false, false},
		{"concurrent jobs are not reconciled", 1000, true, true},
	} {
		e := &env{workload: "w", outDir: t.TempDir(), tr: &tracer{}, log: io.Discard}
		e.tr.spans = []spanRec{
			{name: "op", start: 0, end: 60 * ms, parent: -1},
			{name: "op", start: 60 * ms, end: 100 * ms, parent: -1},
		}
		o := newOutcome()
		if err := e.finishTrace(o, c.wallMs, c.overlap, []float64{50}, []float64{50}, nil); err != nil {
			t.Fatal(err)
		}
		if ok := len(o.problems) == 0; ok != c.ok {
			t.Errorf("%s: passed %v, want %v (%v)", c.name, ok, c.ok, o.problems)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRec{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0}, // overlaps a
		{name: "c", start: 35 * ms, end: 45 * ms, parent: 2},
		{name: "d", start: 90 * ms, end: 120 * ms, parent: 0}, // runs past root
	}
	want := []time.Duration{40 * ms, 30 * ms, 20 * ms, 10 * ms, 30 * ms}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("%s self %v, want %v", spans[i].name, got, want[i])
		}
	}
}
