package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// Loading the material constants through real OpLUT instructions
// (Algorithm 1's in-place fetch) must produce the identical simulation as
// direct host writes — and must actually have fetched from the reserved
// LUT block.
func TestLUTLoadedConstantsMatchDirectLoad(t *testing.T) {
	m := mesh.New(1, 4, true)
	q, qPim := acousticStates(t, m)
	dt := 1e-3

	// Heterogeneous field so every element's LUT entries differ.
	field := material.UniformAcoustic(m.NumElem, fnMat)
	for e := range field.ByElem {
		field.ByElem[e].Kappa = 2.0 + 0.1*float64(e)
	}

	direct := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	direct.LoadField(q.Copy(), field)

	viaLUT := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	viaLUT.LoadWithLUT(qPim, field)

	// Every block's fetched constants match the host computation exactly.
	for e := 0; e < m.NumElem; e++ {
		if !viaLUT.VerifyLUTLoaded(e, field) {
			t.Fatalf("element %d: LUT-fetched constants differ from host values", e)
		}
	}

	// And the simulations agree bit-for-bit (identical float32 programs on
	// identical data).
	direct.Run(2)
	viaLUT.Run(2)
	a, b := dg.NewAcousticState(m), dg.NewAcousticState(m)
	direct.ReadState(a)
	viaLUT.ReadState(b)
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("state diverged at node %d: %g vs %g", i, a.P[i], b.P[i])
		}
	}

	// The LUT path really executed OpLUT instructions: 28 per element at
	// setup.
	wantLUTs := int64(m.NumElem * lutEntriesPerElem)
	if viaLUT.Engine.InstrCount < wantLUTs {
		t.Errorf("only %d instructions executed at load; want at least %d LUT fetches",
			viaLUT.Engine.InstrCount, wantLUTs)
	}
}

// The LUT fetch must be priced: the setup phase costs time and energy,
// including the inter-block transit from the LUT block.
func TestLUTLoadCharged(t *testing.T) {
	m := mesh.New(1, 4, true)
	q, _ := acousticStates(t, m)
	fa := functionalForTest(t, m, 1e-3, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	fa.LoadWithLUT(q, material.UniformAcoustic(m.NumElem, fnMat))
	if fa.Engine.TotalTime() <= 0 || fa.Engine.TotalEnergy <= 0 {
		t.Error("LUT constant loading must consume time and energy")
	}
}
