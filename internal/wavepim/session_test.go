package wavepim

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// functionalForTest builds a Session on m with time-step dt; opts select
// the equation, material and flux.
func functionalForTest(t *testing.T, m *mesh.Mesh, dt float64, opts ...Option) *Session {
	t.Helper()
	s, err := NewSession(append([]Option{WithMesh(m), WithDt(dt)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sessionForTest builds a small instrumented acoustic session with a
// loaded plane wave.
func sessionForTest(t *testing.T, opts ...Option) *Session {
	t.Helper()
	m := mesh.New(1, 4, true)
	s := functionalForTest(t, m, 1e-3, opts...)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, fnMat, 1, q)
	s.Acoustic().Load(q)
	return s
}

// TestSessionMatchesLegacyAcoustic is the API-redesign differential: a
// Session run and the functional system's own Run loop produce
// bit-identical state and identical engine accounting.
func TestSessionMatchesLegacyAcoustic(t *testing.T) {
	m := mesh.New(1, 4, true)
	q0 := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, fnMat, 1, q0)

	direct := functionalForTest(t, m, 1e-3, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	direct.Load(q0)
	direct.Run(2)

	s := sessionForTest(t)
	if err := s.Run(context.Background(), 2); err != nil {
		t.Fatal(err)
	}

	qa, qb := dg.NewAcousticState(m), dg.NewAcousticState(m)
	direct.ReadState(qa)
	s.Acoustic().ReadState(qb)
	for i := range qa.P {
		if qa.P[i] != qb.P[i] {
			t.Fatalf("P[%d]: system %v, session %v", i, qa.P[i], qb.P[i])
		}
	}
	if a, b := direct.Engine.Now(), s.Engine().Now(); a != b {
		t.Fatalf("clock: system %v, session %v", a, b)
	}
	if a, b := direct.Engine.InstrCount, s.Engine().InstrCount; a != b {
		t.Fatalf("instr count: system %v, session %v", a, b)
	}
}

// TestSessionCounterDifferential asserts the registry's counters equal the
// engine's legacy Stats fields after an instrumented run: the sim.instr.*
// counters sum to InstrCount, sim.transfer.count equals TransferCt, and
// the published xbar.* counters equal the chip-wide block Stats.
func TestSessionCounterDifferential(t *testing.T) {
	sink := obs.NewSink()
	s := sessionForTest(t, WithObs(sink))
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	snap := sink.Reg.Snapshot()

	var instr int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "sim.instr.") {
			instr += v
		}
	}
	if instr != s.Engine().InstrCount {
		t.Errorf("sim.instr.* sum %d, engine InstrCount %d", instr, s.Engine().InstrCount)
	}
	if got := snap.Counters["sim.transfer.count"]; got != s.Engine().TransferCt {
		t.Errorf("sim.transfer.count %d, engine TransferCt %d", got, s.Engine().TransferCt)
	}

	bs := s.Engine().Chip.TotalBlockStats()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"xbar.row_reads", bs.RowReads},
		{"xbar.row_writes", bs.RowWrites},
		{"xbar.add_ops", bs.AddOps},
		{"xbar.mul_ops", bs.MulOps},
		{"xbar.copied_rows", bs.CopiedRows},
		{"xbar.nor_steps", bs.NORSteps},
	} {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("%s: registry %d, chip stats %d", c.name, got, c.want)
		}
	}
	if bs.AddOps == 0 || bs.NORSteps == 0 {
		t.Error("functional run recorded no crossbar arithmetic; differential is vacuous")
	}
}

// TestSessionTraceGolden pins the exported Chrome trace of a one-step
// acoustic session run. The spans come from the engine's simulated clock,
// so the trace is fully deterministic across hosts and worker counts.
func TestSessionTraceGolden(t *testing.T) {
	sink := obs.NewSink()
	s := sessionForTest(t, WithObs(sink))
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}

	// Structural checks: well-formed trace_event JSON, complete ("X")
	// spans, non-negative durations, monotonically non-decreasing start
	// times (the engine commits phases in clock order).
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
	names := map[string]bool{}
	prevTS := -1.0
	for i, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("span %d: phase %q, want complete event \"X\"", i, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Fatalf("span %d (%s): negative duration %v", i, ev.Name, ev.Dur)
		}
		if ev.TS < prevTS {
			t.Fatalf("span %d (%s): start %v before previous start %v — not monotone", i, ev.Name, ev.TS, prevTS)
		}
		prevTS = ev.TS
		names[ev.Name] = true
	}
	// One time-step must show the paper's kernel structure.
	for _, want := range []string{"volume", "flux-fetch-x-", "flux-x-", "integration-0", "integration-4"} {
		if !names[want] {
			t.Errorf("trace is missing a %q span", want)
		}
	}

	golden := filepath.Join("testdata", "session_trace.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden file %s (run with -update to regenerate)", golden)
	}
}

// TestSessionContextCancel: a canceled context stops the run inside the
// engine's worker pool and surfaces ctx.Err().
func TestSessionContextCancel(t *testing.T) {
	s := sessionForTest(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Run(ctx, 100); err != context.Canceled {
		t.Fatalf("Run under canceled context: got %v, want context.Canceled", err)
	}
	// The engine latched the error; a fresh context clears the way again.
	s.Engine().ClearErr()
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatalf("Run after ClearErr: %v", err)
	}
}

// TestSessionOptionValidation covers the constructor's error paths: a
// pinned chip that cannot hold one z-slice of the model (a smaller model
// batches), a capacity that is not whole tiles, and fault injection or
// recovery on a chip that batches the model.
func TestSessionOptionValidation(t *testing.T) {
	m := mesh.New(1, 4, true)
	if _, err := NewSession(WithDt(1e-3)); err == nil {
		t.Error("NewSession without a mesh should fail")
	}
	if _, err := NewSession(WithMesh(m)); err == nil {
		t.Error("NewSession without a dt should fail")
	}
	if _, err := NewSession(
		WithEquation(opcount.ElasticRiemann),
		WithMesh(mesh.New(4, 2, true)), // a slice is 256 elements x 4 slots
		WithDt(1e-3),
		WithChip(tilesChip(1)),
	); err == nil {
		t.Error("NewSession with a pinned chip that cannot hold one slice should fail")
	}
	if _, err := NewSession(
		WithEquation(opcount.ElasticRiemann),
		WithMesh(mesh.New(2, 4, true)),
		WithDt(1e-3),
		WithChip(chip.Config{Name: "tiny", CapacityBytes: chip.BlockBytes * 4, Interconnect: chip.HTree, Fanout: 4}),
	); err == nil {
		t.Error("NewSession with a 4-block pinned chip should fail")
	}
	for _, opt := range []Option{WithFaults(fault.Config{Seed: 1}), WithRecovery(fault.Recovery{CheckpointEvery: 1})} {
		if _, err := NewSession(WithMesh(mesh.New(3, 2, true)), WithDt(1e-3), WithChip(tilesChip(1)), opt); err == nil {
			t.Error("NewSession with faults or recovery on a batching chip should fail")
		}
	}
}

// TestSessionEquations exercises the elastic and Maxwell paths through the
// same entry point.
func TestSessionEquations(t *testing.T) {
	m := mesh.New(1, 4, true)
	el, err := NewSession(
		WithEquation(opcount.ElasticRiemann),
		WithMesh(m),
		WithDt(1e-3),
		WithElasticMaterial(material.Elastic{Lambda: 2, Mu: 1, Rho: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if el.Elastic() == nil || el.Acoustic() != nil {
		t.Fatal("elastic session must expose only the elastic system")
	}
	mx, err := NewSession(
		WithEquation(opcount.Maxwell),
		WithMesh(m),
		WithDt(1e-3),
		WithDielectric(material.Dielectric{Eps: 2.25, Mu: 1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Maxwell() == nil {
		t.Fatal("maxwell session must expose the Maxwell system")
	}
}

// TestSessionAcousticAutoSizesChip: without WithChip an acoustic session
// runs on the smallest chip with one block per element, so meshes up to
// refine 4 keep the 512 MB chip (and their digests) and larger ones fit.
func TestSessionAcousticAutoSizesChip(t *testing.T) {
	for _, tc := range []struct {
		refine int
		want   string
	}{
		{1, "PIM-512MB"},
		{4, "PIM-512MB"},
		{5, "PIM-8GB"},
	} {
		s, err := NewSession(WithMesh(mesh.New(tc.refine, 2, true)), WithDt(1e-4))
		if err != nil {
			t.Fatalf("refine %d: %v", tc.refine, err)
		}
		if got := s.Engine().Chip.Config.Name; got != tc.want {
			t.Errorf("refine %d: chip %s, want %s", tc.refine, got, tc.want)
		}
	}
}
