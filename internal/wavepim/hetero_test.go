package wavepim

import (
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// Heterogeneous media: each element's block holds its own
// material-derived constants, so a layered medium costs nothing extra on
// the PIM side. The functional run must track the reference solver
// through an impedance contrast (a wave partially reflecting off a fast
// layer).
func TestFunctionalAcousticHeterogeneousLayers(t *testing.T) {
	m := mesh.New(1, 4, true)
	slow := material.Acoustic{Kappa: 1.0, Rho: 1.0}  // c = 1
	fast := material.Acoustic{Kappa: 6.25, Rho: 1.0} // c = 2.5
	field := material.UniformAcoustic(m.NumElem, slow)
	for e := 0; e < m.NumElem; e++ {
		_, _, ez := m.ElemCoords(e)
		if ez >= m.EPerAxis/2 {
			field.ByElem[e] = fast
		}
	}

	// A pulse near the layer interface.
	q := dg.NewAcousticState(m)
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.3)*(z-0.3)
			q.P[e*nn+n] = math.Exp(-r2 / 0.03)
		}
	}
	qPim := q.Copy()

	ref := dg.NewAcousticSolver(m, field, dg.RiemannFlux)
	it := dg.NewAcousticIntegrator(ref)
	dt := ref.MaxStableDt(0.25)

	fa := functionalForTest(t, m, dt, WithAcousticMaterial(slow), WithFlux(dg.RiemannFlux)).Acoustic()
	fa.LoadField(qPim, field)

	const steps = 3
	it.Run(q, 0, dt, steps)
	fa.Run(steps)
	got := dg.NewAcousticState(m)
	fa.ReadState(got)

	if e := maxRelErr(got.P, q.P); e > 5e-3 {
		t.Errorf("heterogeneous pressure rel err %g", e)
	}
	for d := 0; d < 3; d++ {
		if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
			t.Errorf("heterogeneous v[%d] rel err %g", d, e)
		}
	}
	// Sanity: the layers actually differ — the same run with a uniform
	// slow medium must diverge from the heterogeneous reference.
	uni := qPim.Copy()
	refUni := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, slow), dg.RiemannFlux)
	itUni := dg.NewAcousticIntegrator(refUni)
	itUni.Run(uni, 0, dt, steps)
	if e := maxRelErr(uni.P, q.P); e < 1e-4 {
		t.Error("uniform and layered references coincide; the test is vacuous")
	}
}

// The elastic functional path also supports per-element materials: a
// soft layer over stiff bedrock.
func TestFunctionalElasticHeterogeneousLayers(t *testing.T) {
	m := mesh.New(1, 4, true)
	soft := material.Elastic{Lambda: 1, Mu: 0.5, Rho: 1}
	stiff := material.Elastic{Lambda: 4, Mu: 2, Rho: 1.2}
	field := material.UniformElastic(m.NumElem, soft)
	for e := 0; e < m.NumElem; e++ {
		_, _, ez := m.ElemCoords(e)
		if ez == 0 {
			field.ByElem[e] = stiff
		}
	}
	q := dg.NewElasticState(m)
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, z := m.NodePosition(e, n)
			q.V[2][e*nn+n] = math.Exp(-((x-0.5)*(x-0.5) + (z-0.6)*(z-0.6)) / 0.05)
		}
	}
	qPim := q.Copy()

	ref := dg.NewElasticSolver(m, field, dg.RiemannFlux)
	it := dg.NewElasticIntegrator(ref)
	dt := ref.MaxStableDt(0.25)

	fe := functionalForTest(t, m, dt, WithEquation(opcount.ElasticRiemann), WithElasticMaterial(soft), WithFlux(dg.RiemannFlux)).Elastic()
	fe.LoadField(qPim, field)

	const steps = 2
	it.Run(q, 0, dt, steps)
	fe.Run(steps)
	got := dg.NewElasticState(m)
	fe.ReadState(got)
	for c := 0; c < dg.NumStress; c++ {
		if e := maxRelErr(got.S[c], q.S[c]); e > 5e-3 {
			t.Errorf("hetero elastic stress %d rel err %g", c, e)
		}
	}
	for d := 0; d < 3; d++ {
		if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
			t.Errorf("hetero elastic v[%d] rel err %g", d, e)
		}
	}
}
