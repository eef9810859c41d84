package wavepim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/fault"
)

// faultRun executes the canonical seeded stuck+flip acoustic scenario and
// returns the session plus its run error.
func faultRun(t *testing.T, steps int, cfg fault.Config, opts ...Option) (*Session, error) {
	t.Helper()
	s := sessionForTest(t, append([]Option{WithFaults(cfg)}, opts...)...)
	return s, s.Run(context.Background(), steps)
}

// TestFaultedRunHealsAndCompletes: a seeded stuck+flip scenario completes
// through the recovery ladder with observable detection and correction,
// and the result still tracks the fault-free reference (the ladder heals,
// it does not paper over).
func TestFaultedRunHealsAndCompletes(t *testing.T) {
	// Seed 4 at these rates is a run the ladder can save but only by using
	// every rung: ECC corrections plus two checkpoint rollbacks.
	cfg := fault.Config{Seed: 4, FlipProb: 1e-5, StuckProb: 1e-6}
	s, err := faultRun(t, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := s.FaultReport()
	if r.Counts.Flips == 0 {
		t.Fatalf("scenario injected nothing: %s", r)
	}
	if r.Counts.Detected == 0 || r.Counts.Corrected == 0 {
		t.Fatalf("ladder did not detect/correct: %s", r)
	}
	if r.Rollbacks == 0 {
		t.Fatalf("scenario should exercise the rollback rung: %s", r)
	}
	if r.Checkpoints == 0 {
		t.Fatalf("guarded run took no checkpoints: %s", r)
	}

	// The healed state must stay close to a fault-free run's.
	clean := sessionForTest(t)
	if err := clean.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	m := mesh.New(1, 4, true)
	got, want := dg.NewAcousticState(m), dg.NewAcousticState(m)
	s.Acoustic().ReadState(got)
	clean.Acoustic().ReadState(want)
	for i := range want.P {
		d := got.P[i] - want.P[i]
		if d < -1e-3 || d > 1e-3 {
			t.Fatalf("healed state drifted at node %d: %g vs %g", i, got.P[i], want.P[i])
		}
	}

	// Recovery costs must be visible on the simulated timeline.
	ecc := s.Engine().NameTotal("sim.fault.ecc").Count > 0
	ckpt := s.Engine().NameTotal("sim.fault.checkpoint").Count > 0
	if !ecc || !ckpt {
		t.Fatalf("missing recovery phases on the timeline (ecc=%v checkpoint=%v)", ecc, ckpt)
	}
}

// TestFaultedRunByteReproducible: the same seeded scenario twice gives a
// byte-identical JSON report and an identical timeline digest — the
// property the CI determinism guard enforces end to end.
func TestFaultedRunByteReproducible(t *testing.T) {
	run := func() ([]byte, uint64) {
		cfg := fault.Config{Seed: 4, FlipProb: 1e-5, StuckProb: 1e-6}
		s, err := faultRun(t, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.FaultReport().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), s.Engine().TimelineDigest()
	}
	r1, d1 := run()
	r2, d2 := run()
	if !bytes.Equal(r1, r2) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", r1, r2)
	}
	if d1 != d2 {
		t.Fatalf("timeline digests differ: %016x vs %016x", d1, d2)
	}
}

// TestRunDeadline: an expired deadline surfaces as *ErrDeadline carrying
// the last completed step, and still unwraps to context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	s := sessionForTest(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	err := s.Run(ctx, 5)
	var de *ErrDeadline
	if !errors.As(err, &de) {
		t.Fatalf("want *ErrDeadline, got %v", err)
	}
	if de.Step != 0 {
		t.Fatalf("no step can complete under an expired deadline, got Step=%d", de.Step)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadline must unwrap to context.DeadlineExceeded")
	}
}

// TestRollbackThenUnrecoverable: with ECC off and an aggressive flip rate,
// corruption reaches the field state, the health guard rolls back, and
// once the rollback budget is spent Run returns fault.ErrUnrecoverable.
func TestRollbackThenUnrecoverable(t *testing.T) {
	rec := fault.DefaultRecovery()
	rec.ECC = false // no scrubbing: corruption flows into the solver state
	rec.CheckpointEvery = 2
	rec.MaxRollbacks = 1
	rec.BlowupFactor = 10
	cfg := fault.Config{Seed: 13, FlipProb: 5e-3}
	s, err := faultRun(t, 8, cfg, WithRecovery(rec))
	if !errors.Is(err, fault.ErrUnrecoverable) {
		t.Fatalf("want ErrUnrecoverable, got %v", err)
	}
	r := s.FaultReport()
	if r.Rollbacks != int64(rec.MaxRollbacks) {
		t.Fatalf("want the full rollback budget spent (%d), got %s", rec.MaxRollbacks, r)
	}
	if s.Engine().NameTotal("sim.fault.rollback").Count == 0 {
		t.Fatal("no sim.fault.rollback phase on the timeline")
	}
}

// TestRecoveryOnlySession: WithRecovery alone (no injected faults) runs
// the checkpointed guard over a clean chip and completes with a quiet
// report — health checks cost timeline, not correctness.
func TestRecoveryOnlySession(t *testing.T) {
	rec := fault.DefaultRecovery()
	rec.CheckpointEvery = 2
	s := sessionForTest(t, WithRecovery(rec))
	if err := s.Run(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	r := s.FaultReport()
	if r.Counts != (fault.Counts{}) || r.Rollbacks != 0 {
		t.Fatalf("clean guarded run reported fault activity: %s", r)
	}
	if r.Checkpoints == 0 {
		t.Fatal("guarded run took no checkpoints")
	}
}

// TestSpareReservationTooSmall: a session must refuse to reserve spares
// past the chip's block count instead of remapping into nowhere.
func TestSpareReservationTooSmall(t *testing.T) {
	rec := fault.DefaultRecovery()
	rec.SpareBlocks = 1 << 20
	m := mesh.New(1, 4, true)
	_, err := NewSession(
		WithMesh(m),
		WithDt(1e-3),
		WithRecovery(rec),
	)
	if err == nil {
		t.Fatal("oversized spare reservation accepted")
	}
}
