package wavepim

import (
	"strings"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/xbar"
)

// tilesChip is a custom chip of n 32 MB tiles (256 blocks each): small
// enough that refine-3 meshes fold through it in batches.
func tilesChip(n int) chip.Config {
	return chip.Config{Name: "tiles", CapacityBytes: int64(n) * 256 * chip.BlockBytes, Interconnect: chip.HTree, Fanout: 4}
}

// allocatedBlocks counts the blocks ch has materialized: SetBlockHook
// runs a new hook at once on every one of them.
func allocatedBlocks(ch *chip.Chip) int {
	n := 0
	ch.SetBlockHook(func(*xbar.Block) { n++ })
	ch.SetBlockHook(nil)
	return n
}

// The batched functional run (Figure 6/7 on real data) must agree with
// the reference solver: batching is a residency strategy, not a numerical
// change.
func TestFunctionalBatchedMatchesUnbatched(t *testing.T) {
	m := mesh.New(3, 4, true) // 8 z-slices of 64 elements
	q, qPim := acousticStates(t, m)

	// Reference.
	ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, fnMat), dg.RiemannFlux)
	it := dg.NewAcousticIntegrator(ref)
	dt := ref.MaxStableDt(0.3)

	s := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux), WithChip(tilesChip(1)))
	if n := len(s.sys.batches); n != 2 {
		t.Fatalf("%d batches, want 2", n)
	}
	fb := s.Acoustic()
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
	if got := allocatedBlocks(fb.Engine.Chip); got != 256 {
		t.Errorf("allocated %d blocks, want 256 (one batch)", got)
	}
}

// Batched and resident functional runs track each other to float32
// round-off across several steps (bit for bit, as
// TestBatchedSessionMatchesResident asserts).
func TestFunctionalBatchedTracksResidentRun(t *testing.T) {
	m := mesh.New(3, 4, true)
	q, _ := acousticStates(t, m)
	dt := 1e-3

	resident := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	resident.Load(q.Copy())
	batched := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux), WithChip(tilesChip(1))).Acoustic()
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

// A chip that cannot hold one z-slice of the model is an error, never a
// panic, with MakePlan's message; a slice count the batch size does not
// divide is a ragged last batch, not an error.
func TestFunctionalBatchedRejectsBadBatchSize(t *testing.T) {
	for _, tc := range []struct {
		eq     opcount.Equation
		refine int
	}{
		{opcount.Acoustic, 5},       // a slice is 1024 blocks
		{opcount.ElasticRiemann, 4}, // 256 elements x 4 slots
		{opcount.Maxwell, 4},
	} {
		_, err := NewSession(WithEquation(tc.eq), WithMesh(mesh.New(tc.refine, 2, true)), WithDt(1e-3), WithChip(tilesChip(1)))
		if err == nil || !strings.Contains(err.Error(), "does not fit even one slice") {
			t.Errorf("%v refine %d on one tile: error %v, want the one-slice error", tc.eq, tc.refine, err)
		}
	}
	s, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(mesh.New(3, 2, true)), WithDt(1e-3), WithChip(tilesChip(3)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(s.sys.batches); n != 3 {
		t.Errorf("8 slices at 3 per batch: %d batches, want 3", n)
	}
}

// A Session whose chip cannot hold the mesh folds it through in batches
// and must leave exactly the state a resident Session leaves on the
// auto-sized chip: the boundary copies read the same pre-stage values the
// resident flux fetch reads, and every block program sees the same
// operands. The fold must really happen: DRAM bytes are charged and the
// chip materializes only the blocks the largest batch uses.
func TestBatchedSessionMatchesResident(t *testing.T) {
	const steps = 2
	m := mesh.New(3, 4, true)
	slow, fast := material.Acoustic{Kappa: 1, Rho: 1}, material.Acoustic{Kappa: 6.25, Rho: 1}
	layers := material.UniformAcoustic(m.NumElem, slow)
	for e := range layers.ByElem {
		if _, _, ez := m.ElemCoords(e); ez >= m.EPerAxis/2 {
			layers.ByElem[e] = fast
		}
	}
	cases := []struct {
		name           string
		eq             opcount.Equation
		flux           dg.FluxType
		field          *material.AcousticField
		tiles, batches int
		batchBlocks    int // blocks the largest batch's phases and variables use
	}{
		{"acoustic-riemann", opcount.Acoustic, dg.RiemannFlux, nil, 1, 2, 256},
		{"acoustic-central", opcount.Acoustic, dg.CentralFlux, nil, 1, 2, 256},
		{"elastic-riemann", opcount.ElasticRiemann, dg.RiemannFlux, nil, 3, 3, 576},
		{"maxwell", opcount.Maxwell, FluxFor(opcount.Maxwell), nil, 1, 8, 128},
		{"acoustic-layers", opcount.Acoustic, dg.RiemannFlux, layers, 1, 2, 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...Option) (*Session, uint64) {
				s, err := NewSession(append([]Option{WithEquation(tc.eq), WithFlux(tc.flux), WithMesh(m), WithDt(1e-3)}, opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				var read func() [][]float64
				switch tc.eq {
				case opcount.Acoustic:
					q, _ := acousticStates(t, m)
					if tc.field != nil {
						s.Acoustic().LoadField(q, tc.field)
					} else {
						s.Acoustic().Load(q)
					}
					read = func() [][]float64 { s.Acoustic().ReadState(q); return q.Slices() }
				case opcount.Maxwell:
					q, _ := maxwellStates(m)
					s.Maxwell().Load(q)
					read = func() [][]float64 { s.Maxwell().ReadState(q); return q.Slices() }
				default:
					q, _ := elasticStates(m)
					s.Elastic().Load(q)
					read = func() [][]float64 { s.Elastic().ReadState(q); return q.Slices() }
				}
				for i := 0; i < steps; i++ {
					s.Step()
				}
				return s, stateHash(read())
			}
			resident, want := run()
			if resident.sys.batches != nil {
				t.Fatal("the auto-sized chip batches the mesh")
			}
			batched, got := run(WithChip(tilesChip(tc.tiles)))
			if got != want {
				t.Errorf("batched state hash %#x, resident %#x", got, want)
			}
			if n := len(batched.sys.batches); n != tc.batches {
				t.Errorf("%d batches, want %d", n, tc.batches)
			}
			e := batched.Engine()
			if e.DRAMBytes == 0 {
				t.Error("batched run moved no DRAM bytes")
			}
			if n := allocatedBlocks(e.Chip); n != tc.batchBlocks {
				t.Errorf("allocated %d blocks, want the largest batch's %d", n, tc.batchBlocks)
			}
		})
	}
}
