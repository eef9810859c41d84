package wavepim

import (
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

var emMat = material.Dielectric{Eps: 2.25, Mu: 1.0}

func maxwellStates(m *mesh.Mesh) (*dg.MaxwellState, *dg.MaxwellState) {
	q := dg.NewMaxwellState(m)
	dg.PlaneWaveEM(m, emMat, 1, q)
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			i := e*nn + n
			// Excite all six components and all derivative directions.
			q.E[0][i] = 0.2 * math.Sin(2*math.Pi*(y+z))
			q.E[2][i] = 0.3 * math.Cos(2*math.Pi*y)
			q.H[0][i] = -0.1 * math.Sin(2*math.Pi*z)
			q.H[1][i] = 0.15 * math.Cos(2*math.Pi*(x+z))
		}
	}
	return q, q.Copy()
}

// The Maxwell PIM mapping must track the reference solver over full
// time-steps for both flux solvers — the paper's electromagnetic claim,
// executed in crossbar cells.
func TestFunctionalMaxwellMatchesReference(t *testing.T) {
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		m := mesh.New(1, 4, true)
		q, qPim := maxwellStates(m)

		ref := dg.NewMaxwellSolver(m, emMat, flux)
		it := dg.NewMaxwellIntegrator(ref)
		dt := ref.MaxStableDt(0.3)

		fm := functionalForTest(t, m, dt, WithEquation(opcount.Maxwell), WithDielectric(emMat), WithFlux(flux)).Maxwell()
		fm.Load(qPim)

		const steps = 2
		it.Run(q, 0, dt, steps)
		fm.Run(steps)
		got := dg.NewMaxwellState(m)
		fm.ReadState(got)

		for d := 0; d < 3; d++ {
			if e := maxRelErr(got.E[d], q.E[d]); e > 5e-3 {
				t.Errorf("flux=%v: E[%d] rel err %g", flux, d, e)
			}
			if e := maxRelErr(got.H[d], q.H[d]); e > 5e-3 {
				t.Errorf("flux=%v: H[%d] rel err %g", flux, d, e)
			}
		}
	}
}

// The Maxwell volume program has six curl dot products — between the
// acoustic one-block program (six dots too, but four variables) and the
// elastic velocity block (nine dots).
func TestMaxwellProgramShape(t *testing.T) {
	plan := Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}
	c := NewCompiler(plan, 8, dg.RiemannFlux)
	vol := len(c.VolumeMaxwell(true))
	if volH := len(c.VolumeMaxwell(false)); volH != vol {
		t.Errorf("E and H volume programs should have equal length: %d vs %d", vol, volH)
	}
	if bv := len(c.VolumeElasticVel()); vol >= bv {
		t.Errorf("Maxwell volume (%d) should be shorter than elastic Bv (%d)", vol, bv)
	}
	cc := NewCompiler(plan, 8, dg.CentralFlux)
	for _, f := range []mesh.Face{mesh.FaceXMinus, mesh.FaceYPlus, mesh.FaceZPlus} {
		if len(c.FluxMaxwell(f, true)) <= len(cc.FluxMaxwell(f, true)) {
			t.Errorf("face %v: Riemann Maxwell flux should exceed central", f)
		}
	}
}

// Every Maxwell program instruction must round-trip the 64-bit ISA.
func TestMaxwellProgramsEncodable(t *testing.T) {
	plan := Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		c := NewCompiler(plan, 8, flux)
		for _, eBlock := range []bool{true, false} {
			for _, in := range c.VolumeMaxwell(eBlock) {
				assertRoundTrip(t, in)
			}
			for f := mesh.Face(0); f < mesh.NumFaces; f++ {
				for _, in := range c.FluxMaxwell(f, eBlock) {
					assertRoundTrip(t, in)
				}
			}
		}
	}
}
