package wavepim

import (
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

var elMat = material.Elastic{Lambda: 2.0, Mu: 1.0, Rho: 1.0}

func elasticStates(m *mesh.Mesh) (*dg.ElasticState, *dg.ElasticState) {
	q := dg.NewElasticState(m)
	dg.PlaneWavePX(m, elMat, 1, q)
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			i := e*nn + n
			// Mix in an S-wave and off-axis structure so every variable
			// and derivative direction is exercised.
			vy := 0.4 * math.Sin(2*math.Pi*(x+z))
			q.V[1][i] += vy
			q.S[dg.SXY][i] += -elMat.Rho * elMat.SWaveSpeed() * vy
			q.V[2][i] += 0.25 * math.Cos(2*math.Pi*y)
			q.S[dg.SYZ][i] += 0.1 * math.Sin(2*math.Pi*z)
		}
	}
	return q, q.Copy()
}

// The elastic four-block mapping must track the reference solver over full
// time-steps, for both flux solvers — this exercises Figure 8's cross-block
// Volume memcpy, all nine variables' flux updates, and the E_r layout.
func TestFunctionalElasticMatchesReference(t *testing.T) {
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		m := mesh.New(1, 4, true)
		q, qPim := elasticStates(m)

		ref := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, elMat), flux)
		it := dg.NewElasticIntegrator(ref)
		dt := ref.MaxStableDt(0.3)

		fe := functionalForTest(t, m, dt, WithEquation(opcount.ElasticRiemann), WithElasticMaterial(elMat), WithFlux(flux)).Elastic()
		fe.Load(qPim)

		const steps = 2
		it.Run(q, 0, dt, steps)
		fe.Run(steps)
		got := dg.NewElasticState(m)
		fe.ReadState(got)

		for c := 0; c < dg.NumStress; c++ {
			if e := maxRelErr(got.S[c], q.S[c]); e > 5e-3 {
				t.Errorf("flux=%v: stress component %d rel err %g", flux, c, e)
			}
		}
		for d := 0; d < 3; d++ {
			if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
				t.Errorf("flux=%v: velocity %d rel err %g", flux, d, e)
			}
		}
	}
}

// Elastic volume programs must be larger than acoustic ones (9 variables,
// 18 derivative dot products versus 6) and the Riemann flux larger than
// central — the benchmark ordering of Table 6.
func TestElasticProgramSizes(t *testing.T) {
	plan := Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}
	cc := NewCompiler(plan, 8, dg.CentralFlux)
	cr := NewCompiler(plan, 8, dg.RiemannFlux)
	// Bv runs 9 dots — the elastic critical path.
	bv := len(cc.VolumeElasticVel())
	acoustic := len(cc.VolumeOneBlock())
	if bv <= acoustic {
		t.Errorf("elastic Bv volume (%d) should exceed acoustic naive volume (%d)", bv, acoustic)
	}
	for _, f := range []mesh.Face{mesh.FaceXMinus, mesh.FaceYPlus, mesh.FaceZMinus} {
		if len(cr.FluxElasticDiag(f)) <= len(cc.FluxElasticDiag(f)) {
			t.Errorf("face %v: Riemann diag flux should exceed central", f)
		}
		if len(cr.FluxElasticVel(f)) <= len(cc.FluxElasticVel(f)) {
			t.Errorf("face %v: Riemann velocity flux should exceed central", f)
		}
	}
}

func TestShearVarMapping(t *testing.T) {
	if shearVar(0, 1) != 0 || shearVar(1, 0) != 0 {
		t.Error("sxy")
	}
	if shearVar(0, 2) != 1 || shearVar(2, 0) != 1 {
		t.Error("sxz")
	}
	if shearVar(1, 2) != 2 || shearVar(2, 1) != 2 {
		t.Error("syz")
	}
}

func TestBvSigmaColSymmetric(t *testing.T) {
	// sigma is symmetric: column for (i, a) equals column for (a, i).
	for i := 0; i < 3; i++ {
		for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
			if bvSigmaCol(i, a) != bvSigmaCol(int(a), mesh.Axis(i)) {
				t.Errorf("bvSigmaCol not symmetric at (%d,%v)", i, a)
			}
		}
	}
	// Diagonal entries map to remote0..2, shear to remote3..5.
	if bvSigmaCol(0, mesh.AxisX) != ExColRemote+0 || bvSigmaCol(2, mesh.AxisZ) != ExColRemote+2 {
		t.Error("diag mapping")
	}
	if bvSigmaCol(0, mesh.AxisY) != ExColRemote+3 || bvSigmaCol(1, mesh.AxisZ) != ExColRemote+5 {
		t.Error("shear mapping")
	}
}

func TestOtherAxes(t *testing.T) {
	if otherAxes(mesh.AxisX) != [2]int{1, 2} ||
		otherAxes(mesh.AxisY) != [2]int{0, 2} ||
		otherAxes(mesh.AxisZ) != [2]int{0, 1} {
		t.Error("otherAxes wrong")
	}
}
