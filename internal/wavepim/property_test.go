package wavepim

import (
	"math/rand"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// Property: for arbitrary (bounded) random states, the compiled PIM
// programs compute the same semi-discrete RHS as the reference solver.
// This goes beyond the structured plane-wave tests — random fields have no
// symmetry for bugs to hide behind.
func TestFunctionalRHSMatchesOnRandomStates(t *testing.T) {
	m := mesh.New(1, 4, true)
	mat := material.Acoustic{Kappa: 1.7, Rho: 0.8}
	ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), dg.RiemannFlux)
	r := rand.New(rand.NewSource(20240704))

	for trial := 0; trial < 8; trial++ {
		q := dg.NewAcousticState(m)
		for i := range q.P {
			q.P[i] = 2*r.Float64() - 1
			for d := 0; d < 3; d++ {
				q.V[d][i] = 2*r.Float64() - 1
			}
		}
		want := dg.NewAcousticState(m)
		ref.RHS(q, want)

		fa := functionalForTest(t, m, 1e-3, WithAcousticMaterial(mat), WithFlux(dg.RiemannFlux)).Acoustic()
		fa.Load(q)
		fa.RHSOnce()
		got := dg.NewAcousticState(m)
		fa.ReadRHS(got)

		if e := maxRelErr(got.P, want.P); e > 5e-4 {
			t.Fatalf("trial %d: random-state pressure RHS rel err %g", trial, e)
		}
		for d := 0; d < 3; d++ {
			if e := maxRelErr(got.V[d], want.V[d]); e > 5e-4 {
				t.Fatalf("trial %d: random-state v[%d] RHS rel err %g", trial, d, e)
			}
		}
	}
}

// Property: linearity of the PIM-computed RHS. The dG operator is linear,
// so RHS(a*q) must equal a*RHS(q) — including every masked flux path and
// cross-block transfer.
func TestFunctionalRHSLinearity(t *testing.T) {
	m := mesh.New(1, 4, true)
	mat := material.Acoustic{Kappa: 2.25, Rho: 1.0}
	q, _ := acousticStates(t, m)

	rhs1 := dg.NewAcousticState(m)
	fa1 := functionalForTest(t, m, 1e-3, WithAcousticMaterial(mat), WithFlux(dg.CentralFlux)).Acoustic()
	fa1.Load(q)
	fa1.RHSOnce()
	fa1.ReadRHS(rhs1)

	const a = 0.5 // exactly representable: scaling is bit-exact in float32
	scaled := q.Copy()
	for _, x := range scaled.Slices() {
		for i := range x {
			x[i] *= a
		}
	}
	rhs2 := dg.NewAcousticState(m)
	fa2 := functionalForTest(t, m, 1e-3, WithAcousticMaterial(mat), WithFlux(dg.CentralFlux)).Acoustic()
	fa2.Load(scaled)
	fa2.RHSOnce()
	fa2.ReadRHS(rhs2)

	for i := range rhs1.P {
		if float32(rhs2.P[i]) != float32(a*rhs1.P[i]) {
			t.Fatalf("linearity broken at node %d: RHS(q/2)=%g, RHS(q)/2=%g",
				i, rhs2.P[i], a*rhs1.P[i])
		}
	}
}
