package dg

import (
	"fmt"
	"math"
	"time"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
)

// Maxwell's equations are the paper's third wave system (Section 2.1: "One
// may observe structural similarities between Eq. (1), Eq. (2), and the
// Maxwell equations ... successful strategies for efficient computation of
// the acoustic wave motion can also be applied to the elastic and
// electromagnetic waves"). This file implements the extension: the
// source-free Maxwell curl equations in a linear dielectric,
//
//	dE/dt =  (1/eps) curl H
//	dH/dt = -(1/mu)  curl E
//
// six variables per node, discretized with the same nodal dG-SEM
// machinery. Across every face, the tangential field components decouple
// into two acoustic-like characteristic pairs with impedance
// eta = sqrt(mu/eps), so the central and Riemann flux solvers carry over
// directly — which is exactly the reuse the paper's claim rests on.

// MaxwellState holds the six electromagnetic variables.
type MaxwellState struct {
	E [3][]float64
	H [3][]float64
}

// NewMaxwellState allocates a zeroed state.
func NewMaxwellState(m *mesh.Mesh) *MaxwellState {
	n := m.NumElem * m.NodesPerEl
	s := &MaxwellState{}
	for d := 0; d < 3; d++ {
		s.E[d] = make([]float64, n)
		s.H[d] = make([]float64, n)
	}
	return s
}

// Copy duplicates the state.
func (s *MaxwellState) Copy() *MaxwellState {
	c := &MaxwellState{}
	for d := 0; d < 3; d++ {
		c.E[d] = append([]float64(nil), s.E[d]...)
		c.H[d] = append([]float64(nil), s.H[d]...)
	}
	return c
}

// MaxwellSolver evaluates the semi-discrete Maxwell RHS.
type MaxwellSolver struct {
	Op   *Operator
	Mat  material.Dielectric
	Flux FluxType
	// Obs, when non-nil, records each RHS evaluation's wall time and count
	// (see observeRHS). Nil keeps the uninstrumented path.
	Obs *obs.Sink

	scratch [3][]float64
}

// NewMaxwellSolver builds the solver for a uniform dielectric.
func NewMaxwellSolver(m *mesh.Mesh, mat material.Dielectric, flux FluxType) *MaxwellSolver {
	s := &MaxwellSolver{Op: NewOperator(m), Mat: mat, Flux: flux}
	for i := range s.scratch {
		s.scratch[i] = make([]float64, m.NodesPerEl)
	}
	return s
}

// cyc returns the cyclic successor pair of axis a: x->(y,z), y->(z,x),
// z->(x,y).
func cyc(a int) (b, c int) { return (a + 1) % 3, (a + 2) % 3 }

// RHS computes Volume + Flux into rhs.
func (s *MaxwellSolver) RHS(q, rhs *MaxwellState) {
	if s.Obs != nil {
		defer observeRHS(s.Obs, "maxwell", time.Now())
	}
	s.VolumeKernel(q, rhs)
	s.FluxKernel(q, rhs)
}

// VolumeKernel computes the element-local curls.
func (s *MaxwellSolver) VolumeKernel(q, rhs *MaxwellState) {
	for e := 0; e < s.Op.M.NumElem; e++ {
		s.volumeElem(q, rhs, e, s.scratch[0], s.scratch[1])
	}
}

// volumeElem computes one element's curls with caller-owned scratch.
func (s *MaxwellSolver) volumeElem(q, rhs *MaxwellState, e int, da, db []float64) {
	m := s.Op.M
	nn := m.NodesPerEl
	invEps, invMu := 1/s.Mat.Eps, 1/s.Mat.Mu
	off := e * nn
	for a := 0; a < 3; a++ {
		b, c := cyc(a)
		// (curl H)_a = dH_c/db - dH_b/dc
		s.Op.Diff(q.H[c][off:off+nn], mesh.Axis(b), da)
		s.Op.Diff(q.H[b][off:off+nn], mesh.Axis(c), db)
		for n := 0; n < nn; n++ {
			rhs.E[a][off+n] = invEps * (da[n] - db[n])
		}
		// (curl E)_a likewise, with the opposite sign for H.
		s.Op.Diff(q.E[c][off:off+nn], mesh.Axis(b), da)
		s.Op.Diff(q.E[b][off:off+nn], mesh.Axis(c), db)
		for n := 0; n < nn; n++ {
			rhs.H[a][off+n] = -invMu * (da[n] - db[n])
		}
	}
}

// FluxKernel reconciles the interface values. For a face with normal
// n = sign * e_a and cyclic pair (b, c), the tangential components split
// into two independent acoustic-analogue channels:
//
//	channel 1: p := E_b, v := H_c, kappa := 1/eps, rho := mu
//	channel 2: p := E_c, v := -H_b (same material mapping)
//
// each with impedance eta = sqrt(mu/eps); the acoustic interface formulas
// then apply verbatim.
func (s *MaxwellSolver) FluxKernel(q, rhs *MaxwellState) {
	m := s.Op.M
	for e := 0; e < m.NumElem; e++ {
		for f := mesh.Face(0); f < mesh.NumFaces; f++ {
			s.fluxFace(q, rhs, e, f)
		}
	}
}

func (s *MaxwellSolver) fluxFace(q, rhs *MaxwellState, e int, f mesh.Face) {
	m := s.Op.M
	if !m.Periodic {
		panic("dg: Maxwell solver currently supports periodic meshes")
	}
	nn := m.NodesPerEl
	off := e * nn
	a := int(f.Axis())
	b, c := cyc(a)
	sign := float64(f.Sign())
	lift := s.Op.Lift()
	eta := s.Mat.Impedance()
	invEps, invMu := 1/s.Mat.Eps, 1/s.Mat.Mu

	nid, _ := m.Neighbor(e, f)
	nbOff := nid * nn
	myNodes := s.Op.FaceNodes(f)
	nbNodes := s.Op.FaceNodes(f.Opposite())

	for g, n := range myNodes {
		// Channel 1: (E_b, H_c).
		s.channel(q.E[b], q.E[b], q.H[c], q.H[c], +1, rhs.E[b], rhs.H[c],
			off, nbOff, n, nbNodes[g], sign, lift, eta, invEps, invMu)
		// Channel 2: (E_c, -H_b).
		s.channel(q.E[c], q.E[c], q.H[b], q.H[b], -1, rhs.E[c], rhs.H[b],
			off, nbOff, n, nbNodes[g], sign, lift, eta, invEps, invMu)
	}
}

// channel applies the acoustic-analogue interface correction for one
// tangential pair. vSign folds the Levi-Civita orientation of the pair.
func (s *MaxwellSolver) channel(pSelf, pNbr, vSelf, vNbr []float64, vSign float64,
	pOut, vOut []float64, off, nbOff, n, nbN int, sign, lift, eta, invEps, invMu float64) {
	pm := pSelf[off+n]
	pp := pNbr[nbOff+nbN]
	vnm := sign * vSign * vSelf[off+n]
	vnp := sign * vSign * vNbr[nbOff+nbN]
	var pStar, vnStar float64
	switch s.Flux {
	case CentralFlux:
		pStar = (pm + pp) / 2
		vnStar = (vnm + vnp) / 2
	case RiemannFlux:
		pStar = (pm+pp)/2 + eta/2*(vnm-vnp)
		vnStar = (vnm+vnp)/2 + (pm-pp)/(2*eta)
	}
	pOut[off+n] += lift * invEps * (vnm - vnStar)
	vOut[off+n] += vSign * lift * invMu * (pm - pStar) * sign
}

// MaxStableDt returns the CFL-limited time step (wave speed 1/sqrt(eps mu)).
func (s *MaxwellSolver) MaxStableDt(cfl float64) float64 {
	m := s.Op.M
	minDx := (m.Rule.Points[1] - m.Rule.Points[0]) * m.H / 2
	return cfl * minDx / s.Mat.LightSpeed()
}

// Energy returns the electromagnetic energy Int( eps|E|^2 + mu|H|^2 )/2.
func (s *MaxwellSolver) Energy(q *MaxwellState) float64 {
	m := s.Op.M
	nn := m.NodesPerEl
	u := s.scratch[2]
	var total float64
	for e := 0; e < m.NumElem; e++ {
		off := e * nn
		for n := 0; n < nn; n++ {
			var e2, h2 float64
			for d := 0; d < 3; d++ {
				e2 += q.E[d][off+n] * q.E[d][off+n]
				h2 += q.H[d][off+n] * q.H[d][off+n]
			}
			u[n] = (s.Mat.Eps*e2 + s.Mat.Mu*h2) / 2
		}
		total += s.Op.IntegrateElement(u)
	}
	return total
}

// PlaneWaveEM initializes a +x-propagating plane wave with E along y and
// H along z: Ey = sin(2 pi k x), Hz = Ey / eta.
func PlaneWaveEM(m *mesh.Mesh, mat material.Dielectric, k int, q *MaxwellState) {
	eta := mat.Impedance()
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			ey := math.Sin(2 * math.Pi * float64(k) * x)
			q.E[1][e*nn+n] = ey
			q.H[2][e*nn+n] = ey / eta
		}
	}
}

// PlaneWaveEMAt is the analytic Ey at (x, t).
func PlaneWaveEMAt(mat material.Dielectric, k int, x, t float64) float64 {
	return math.Sin(2 * math.Pi * float64(k) * (x - mat.LightSpeed()*t))
}

var _ = fmt.Sprintf
