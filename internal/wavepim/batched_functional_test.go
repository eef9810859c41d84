package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// The batched functional run (Figure 6/7 on real data) must agree with
// the fully resident functional run AND the reference solver: batching is
// a residency strategy, not a numerical change.
func TestFunctionalBatchedMatchesUnbatched(t *testing.T) {
	m := mesh.New(1, 4, true) // 2 z-slices of 4 elements
	q, qPim := acousticStates(t, m)

	// Reference.
	ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, fnMat), dg.RiemannFlux)
	it := dg.NewAcousticIntegrator(ref)
	dt := ref.MaxStableDt(0.3)

	fb, err := NewFunctionalAcousticBatched(m, fnMat, dg.RiemannFlux, dt, 1) // 2 batches
	if err != nil {
		t.Fatal(err)
	}
	fb.Load(qPim)

	const steps = 2
	it.Run(q, 0, dt, steps)
	fb.Run(steps)
	got := dg.NewAcousticState(m)
	fb.ReadState(got)

	if e := maxRelErr(got.P, q.P); e > 5e-3 {
		t.Errorf("batched pressure rel err %g", e)
	}
	for d := 0; d < 3; d++ {
		if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
			t.Errorf("batched v[%d] rel err %g", d, e)
		}
	}
	// The fold really happened: DRAM traffic was charged, and the chip
	// only materialized one batch's worth of blocks.
	if fb.Engine.DRAMBytes == 0 {
		t.Error("batched run must move DRAM bytes")
	}
	if got := fb.Engine.Chip.AllocatedBlocks(); got != 4 {
		t.Errorf("allocated %d blocks, want 4 (one batch)", got)
	}
}

// Batched and unbatched functional runs produce bit-identical float32
// trajectories when the instruction order per element matches — here we
// assert agreement to float32 round-off across several steps.
func TestFunctionalBatchedTracksResidentRun(t *testing.T) {
	m := mesh.New(1, 4, true)
	q, _ := acousticStates(t, m)
	dt := 1e-3

	resident := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	resident.Load(q.Copy())
	batched, err := NewFunctionalAcousticBatched(m, fnMat, dg.RiemannFlux, dt, 1)
	if err != nil {
		t.Fatal(err)
	}
	batched.Load(q.Copy())

	resident.Run(3)
	batched.Run(3)
	a, b := dg.NewAcousticState(m), dg.NewAcousticState(m)
	resident.ReadState(a)
	batched.ReadState(b)
	if e := maxRelErr(a.P, b.P); e > 1e-5 {
		t.Errorf("batched vs resident pressure rel err %g (want float32 round-off only)", e)
	}
}

// A batch size that is not a positive divisor of the slice count is an
// error, never a panic.
func TestFunctionalBatchedRejectsBadBatchSize(t *testing.T) {
	m := mesh.New(1, 4, true) // 2 z-slices
	for _, spb := range []int{0, -1, 3} {
		if _, err := NewFunctionalAcousticBatched(m, fnMat, dg.RiemannFlux, 1e-3, spb); err == nil {
			t.Errorf("slicesPerBatch=%d: want an error", spb)
		}
	}
}
