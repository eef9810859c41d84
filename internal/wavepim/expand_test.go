package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// The four-block E_p mapping must compute the same time-steps as the
// reference solver — the expansion changes where work happens, not what is
// computed.
func TestFunctionalExpandedMatchesReference(t *testing.T) {
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		m := mesh.New(1, 4, true)
		q, qPim := acousticStates(t, m)

		ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, fnMat), flux)
		it := dg.NewAcousticIntegrator(ref)
		dt := ref.MaxStableDt(0.3)

		fe, err := NewFunctionalAcousticExpanded(m, fnMat, flux, dt)
		if err != nil {
			t.Fatal(err)
		}
		fe.Load(qPim)

		const steps = 2
		it.Run(q, 0, dt, steps)
		fe.Run(steps)
		got := dg.NewAcousticState(m)
		fe.ReadState(got)

		if e := maxRelErr(got.P, q.P); e > 5e-3 {
			t.Errorf("flux=%v: expanded pressure rel err %g", flux, e)
		}
		for d := 0; d < 3; d++ {
			if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
				t.Errorf("flux=%v: expanded v[%d] rel err %g", flux, d, e)
			}
		}
	}
}

// Expansion must shorten the critical path: the per-block Volume program of
// the expanded layout is much shorter than the naive one-block program
// ("the four-block implementation can achieve a better performance than
// the one-block naive solution", Section 6.2.1).
func TestExpansionShortensCriticalPath(t *testing.T) {
	plan := Plan{Tech: ExpandParallel, Layout: AcousticFourBlock, SlotsPerElem: 4}
	c := NewCompiler(plan, 8, dg.RiemannFlux)
	oneBlock := len(c.VolumeOneBlock())
	vBlock := len(c.VolumeVBlock(mesh.AxisX))
	pBlock := len(c.VolumePBlock())
	if vBlock*2 >= oneBlock {
		t.Errorf("expanded V-block volume (%d instrs) should be well under half the naive program (%d)", vBlock, oneBlock)
	}
	if pBlock >= vBlock {
		t.Errorf("P-block combine (%d) should be shorter than a V-block program (%d)", pBlock, vBlock)
	}
	// Same for flux: a V-block handles one face's worth of work at a time.
	oneFlux := len(c.FluxOneBlock(mesh.FaceXMinus)) * 6                                              // naive: all six faces serial
	expFlux := (len(c.FluxVBlock(mesh.FaceXMinus, true)) + len(c.FluxVBlock(mesh.FaceXPlus, false))) // two faces per block
	if expFlux*2 >= oneFlux {
		t.Errorf("expanded flux path (%d) should be well under the naive serial path (%d)", expFlux, oneFlux)
	}
}

// The expanded functional run must actually use four blocks per element
// and move data between them.
func TestExpandedUsesFourBlocksAndTransfers(t *testing.T) {
	m := mesh.New(1, 4, true)
	q, _ := acousticStates(t, m)
	fe, err := NewFunctionalAcousticExpanded(m, fnMat, dg.CentralFlux, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	fe.Load(q)
	fe.Run(1)
	if got := allocatedBlocks(fe.Engine.Chip); got != 4*m.NumElem {
		t.Errorf("allocated %d blocks, want %d", got, 4*m.NumElem)
	}
	if fe.Engine.TransferCt == 0 {
		t.Error("expanded run must perform inter-block transfers")
	}
}
