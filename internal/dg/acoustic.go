package dg

import (
	"fmt"
	"math"
	"time"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
)

// FluxType selects the numerical flux solver used to reconcile
// discontinuous interface values (Section 7.2's "central flux solver" and
// "Riemann flux solver" benchmark groups).
type FluxType int

const (
	// CentralFlux averages the two interface states. It is
	// energy-conserving but non-dissipative.
	CentralFlux FluxType = iota
	// RiemannFlux is the exact upwind flux built from characteristic
	// variables and impedances; it dissipates under-resolved modes and
	// needs the sqrt/inverse preprocessing the paper offloads to the host.
	RiemannFlux
)

func (f FluxType) String() string {
	if f == CentralFlux {
		return "central"
	}
	return "riemann"
}

// Boundary selects the treatment of domain-boundary faces of non-periodic
// meshes.
type Boundary int

const (
	// RigidWall reflects the normal velocity (n.v+ = -n.v-, p+ = p-).
	RigidWall Boundary = iota
	// PressureRelease mirrors pressure (p+ = -p-, v+ = v-).
	PressureRelease
)

// AcousticState holds the four unknown variables of the acoustic system
// (Table 1: pressure p and velocity v at every node of every element),
// stored per-variable as flat [NumElem*NodesPerEl] arrays.
type AcousticState struct {
	P []float64
	V [3][]float64
}

// NewAcousticState allocates a zeroed state for the mesh.
func NewAcousticState(m *mesh.Mesh) *AcousticState {
	n := m.NumElem * m.NodesPerEl
	s := &AcousticState{P: make([]float64, n)}
	for d := range s.V {
		s.V[d] = make([]float64, n)
	}
	return s
}

// Copy duplicates the state.
func (s *AcousticState) Copy() *AcousticState {
	c := &AcousticState{P: append([]float64(nil), s.P...)}
	for d := range s.V {
		c.V[d] = append([]float64(nil), s.V[d]...)
	}
	return c
}

func scale(x []float64, a float64) {
	for i := range x {
		x[i] *= a
	}
}

func addScaled(x []float64, a float64, y []float64) {
	for i := range x {
		x[i] += a * y[i]
	}
}

// AcousticSolver evaluates the semi-discrete right-hand side of the
// acoustic system,
//
//	dp/dt = -kappa  div(v)
//	dv/dt = -(1/rho) grad(p)
//
// split into the paper's Volume (element-local derivatives) and Flux
// (interface reconciliation) kernels.
type AcousticSolver struct {
	Op       *Operator
	Mat      *material.AcousticField
	Flux     FluxType
	Boundary Boundary
	// Obs, when non-nil, records each RHS evaluation's wall time and count
	// (see observeRHS). Nil keeps the uninstrumented path.
	Obs *obs.Sink

	scratch [4][]float64 // per-element work arrays
}

// NewAcousticSolver builds a solver over the given mesh and material field.
func NewAcousticSolver(m *mesh.Mesh, mat *material.AcousticField, flux FluxType) *AcousticSolver {
	if len(mat.ByElem) != m.NumElem {
		panic(fmt.Sprintf("dg: material field has %d elements, mesh has %d", len(mat.ByElem), m.NumElem))
	}
	s := &AcousticSolver{Op: NewOperator(m), Mat: mat, Flux: flux}
	for i := range s.scratch {
		s.scratch[i] = make([]float64, m.NodesPerEl)
	}
	return s
}

// RHS computes the full right-hand side (Volume + Flux) into rhs, which is
// overwritten. q is not modified.
func (s *AcousticSolver) RHS(q, rhs *AcousticState) {
	if s.Obs != nil {
		defer observeRHS(s.Obs, "acoustic", time.Now())
	}
	s.VolumeKernel(q, rhs)
	s.FluxKernel(q, rhs)
}

// observeRHS records one RHS evaluation of equation name, started at
// start: its wall time in dg.rhs_seconds.<name> and one count in
// dg.rhs_calls.<name>. All three solvers share it.
func observeRHS(sink *obs.Sink, name string, start time.Time) {
	sink.Histogram("dg.rhs_seconds." + name).Observe(time.Since(start).Seconds())
	sink.Counter("dg.rhs_calls." + name).Inc()
}

// VolumeKernel computes the element-local part of the RHS (the paper's
// "compute Volume" kernel, green block of Figure 2): grad p and div v
// formed by dot products with the derivative matrix, then combined with the
// material constants into contributions.
func (s *AcousticSolver) VolumeKernel(q, rhs *AcousticState) {
	for e := 0; e < s.Op.M.NumElem; e++ {
		s.volumeElem(q, rhs, e, s.scratch[0], s.scratch[1])
	}
}

// volumeElem computes one element's Volume contribution with caller-owned
// scratch.
func (s *AcousticSolver) volumeElem(q, rhs *AcousticState, e int, divV, dPd []float64) {
	m := s.Op.M
	nn := m.NodesPerEl
	off := e * nn
	mat := s.Mat.ByElem[e]
	s.Op.Diff(q.V[0][off:off+nn], mesh.AxisX, divV)
	s.Op.AddDiff(q.V[1][off:off+nn], mesh.AxisY, divV)
	s.Op.AddDiff(q.V[2][off:off+nn], mesh.AxisZ, divV)
	for n := 0; n < nn; n++ {
		rhs.P[off+n] = -mat.Kappa * divV[n]
	}
	invRho := 1 / mat.Rho
	for d := 0; d < 3; d++ {
		s.Op.Diff(q.P[off:off+nn], mesh.Axis(d), dPd)
		for n := 0; n < nn; n++ {
			rhs.V[d][off+n] = -invRho * dPd[n]
		}
	}
}

// FluxKernel adds the interface (non-local) part of the RHS (the paper's
// "compute Flux" kernel, red block of Figure 2). For every face it gathers
// the neighbor's matching face nodes, solves the interface (central or
// Riemann) problem, and lifts the flux difference back onto the face nodes.
func (s *AcousticSolver) FluxKernel(q, rhs *AcousticState) {
	m := s.Op.M
	for e := 0; e < m.NumElem; e++ {
		for f := mesh.Face(0); f < mesh.NumFaces; f++ {
			s.fluxFace(q, rhs, e, f)
		}
	}
}

func (s *AcousticSolver) fluxFace(q, rhs *AcousticState, e int, f mesh.Face) {
	m := s.Op.M
	nn := m.NodesPerEl
	off := e * nn
	mat := s.Mat.ByElem[e]
	lift := s.Op.Lift()
	myNodes := s.Op.FaceNodes(f)
	axis := int(f.Axis())
	sign := float64(f.Sign())

	nid, ok := m.Neighbor(e, f)
	var nbNodes []int
	var nbOff int
	if ok {
		nbNodes = s.Op.FaceNodes(f.Opposite())
		nbOff = nid * nn
	}

	z := mat.Impedance()
	invRho := 1 / mat.Rho
	for g, n := range myNodes {
		pm := q.P[off+n]
		vnm := sign * q.V[axis][off+n] // n.v on my side
		var pp, vnp float64            // neighbor (plus) side
		if ok {
			nb := nbNodes[g]
			pp = q.P[nbOff+nb]
			vnp = sign * q.V[axis][nbOff+nb]
		} else {
			switch s.Boundary {
			case RigidWall:
				pp, vnp = pm, -vnm
			case PressureRelease:
				pp, vnp = -pm, vnm
			}
		}
		// Interface states from characteristics (central flux when the
		// impedance penalties are dropped).
		var pStar, vnStar float64
		switch s.Flux {
		case CentralFlux:
			pStar = (pm + pp) / 2
			vnStar = (vnm + vnp) / 2
		case RiemannFlux:
			pStar = (pm+pp)/2 + z/2*(vnm-vnp)
			vnStar = (vnm+vnp)/2 + (pm-pp)/(2*z)
		}
		// Strong-form surface corrections: lift * (F-.n - F*.n).
		rhs.P[off+n] += lift * mat.Kappa * (vnm - vnStar)
		rhs.V[axis][off+n] += lift * invRho * (pm - pStar) * sign
	}
}

// MaxStableDt returns a CFL-limited time step for the solver's mesh and
// material: dt = cfl * (minimum GLL node spacing) / c_max.
func (s *AcousticSolver) MaxStableDt(cfl float64) float64 {
	m := s.Op.M
	minDx := (m.Rule.Points[1] - m.Rule.Points[0]) * m.H / 2
	return cfl * minDx / s.Mat.MaxSoundSpeed()
}

// Energy returns the discrete acoustic energy
// E = sum_elems Int( p^2/(2 kappa) + rho |v|^2 / 2 ).
// With the central flux and periodic boundaries it is conserved by the
// semi-discrete system, which the tests verify.
func (s *AcousticSolver) Energy(q *AcousticState) float64 {
	m := s.Op.M
	nn := m.NodesPerEl
	u := s.scratch[3]
	var total float64
	for e := 0; e < m.NumElem; e++ {
		off := e * nn
		mat := s.Mat.ByElem[e]
		for n := 0; n < nn; n++ {
			p := q.P[off+n]
			v2 := q.V[0][off+n]*q.V[0][off+n] + q.V[1][off+n]*q.V[1][off+n] + q.V[2][off+n]*q.V[2][off+n]
			u[n] = p*p/(2*mat.Kappa) + mat.Rho*v2/2
		}
		total += s.Op.IntegrateElement(u)
	}
	return total
}

// PlaneWaveX initializes q with a right-moving sinusoidal plane wave
// p = sin(2*pi*k*(x - c t)), v_x = p/Z evaluated at t=0, for a uniform
// material. Used by the verification tests and the examples.
func PlaneWaveX(m *mesh.Mesh, mat material.Acoustic, k int, q *AcousticState) {
	z := mat.Impedance()
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			p := math.Sin(2 * math.Pi * float64(k) * x)
			q.P[e*nn+n] = p
			q.V[0][e*nn+n] = p / z
			q.V[1][e*nn+n] = 0
			q.V[2][e*nn+n] = 0
		}
	}
}

// PlaneWaveXAt returns the analytic plane-wave pressure at (x, t).
func PlaneWaveXAt(mat material.Acoustic, k int, x, t float64) float64 {
	return math.Sin(2 * math.Pi * float64(k) * (x - mat.SoundSpeed()*t))
}
