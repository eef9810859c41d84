package dg

import (
	"fmt"
	"math"
	"time"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
)

// Stress component indices: the symmetric stress tensor is stored in Voigt
// order. The elastic system has nine unknown variables per node
// (Section 2.1: "the elastic wave equation has nine variables"):
// six stress components plus three velocities.
const (
	SXX = iota
	SYY
	SZZ
	SXY
	SXZ
	SYZ
	NumStress
)

// ElasticState holds the nine unknown variables of the elastic system.
type ElasticState struct {
	S [NumStress][]float64 // symmetric stress tensor, Voigt order
	V [3][]float64         // velocity
}

// NewElasticState allocates a zeroed state for the mesh.
func NewElasticState(m *mesh.Mesh) *ElasticState {
	n := m.NumElem * m.NodesPerEl
	s := &ElasticState{}
	for c := range s.S {
		s.S[c] = make([]float64, n)
	}
	for d := range s.V {
		s.V[d] = make([]float64, n)
	}
	return s
}

// Copy duplicates the state.
func (s *ElasticState) Copy() *ElasticState {
	c := &ElasticState{}
	for i := range s.S {
		c.S[i] = append([]float64(nil), s.S[i]...)
	}
	for d := range s.V {
		c.V[d] = append([]float64(nil), s.V[d]...)
	}
	return c
}

// ElasticSolver evaluates the semi-discrete RHS of the velocity-stress
// form of the elastic wave equation (Eq. 2):
//
//	dS/dt = mu (grad v + grad v^T) + lambda (div v) I
//	dv/dt = (1/rho) div S
type ElasticSolver struct {
	Op       *Operator
	Mat      *material.ElasticField
	Flux     FluxType
	FreeSurf bool // traction-free boundary on non-periodic faces
	// Obs, when non-nil, records each RHS evaluation's wall time and count
	// (see observeRHS). Nil keeps the uninstrumented path.
	Obs *obs.Sink

	scratch [4][]float64
}

// NewElasticSolver builds a solver over the given mesh and material field.
func NewElasticSolver(m *mesh.Mesh, mat *material.ElasticField, flux FluxType) *ElasticSolver {
	if len(mat.ByElem) != m.NumElem {
		panic(fmt.Sprintf("dg: material field has %d elements, mesh has %d", len(mat.ByElem), m.NumElem))
	}
	s := &ElasticSolver{Op: NewOperator(m), Mat: mat, Flux: flux, FreeSurf: true}
	for i := range s.scratch {
		s.scratch[i] = make([]float64, m.NodesPerEl)
	}
	return s
}

// RHS computes the full right-hand side (Volume + Flux) into rhs.
func (s *ElasticSolver) RHS(q, rhs *ElasticState) {
	if s.Obs != nil {
		defer observeRHS(s.Obs, "elastic", time.Now())
	}
	s.VolumeKernel(q, rhs)
	s.FluxKernel(q, rhs)
}

// VolumeKernel computes the element-local derivatives: the velocity
// gradient (grad v, Table 1) feeding the stress update and the stress
// divergence (div S) feeding the velocity update.
func (s *ElasticSolver) VolumeKernel(q, rhs *ElasticState) {
	for e := 0; e < s.Op.M.NumElem; e++ {
		s.volumeElem(q, rhs, e, s.scratch[0], s.scratch[1], s.scratch[2])
	}
}

// volumeElem computes one element's Volume contribution with caller-owned
// scratch.
func (s *ElasticSolver) volumeElem(q, rhs *ElasticState, e int, da, db, dc []float64) {
	m := s.Op.M
	nn := m.NodesPerEl
	off := e * nn
	mat := s.Mat.ByElem[e]
	la, mu := mat.Lambda, mat.Mu

	// Diagonal stress components from dvx/dx, dvy/dy, dvz/dz.
	s.Op.Diff(q.V[0][off:off+nn], mesh.AxisX, da)
	s.Op.Diff(q.V[1][off:off+nn], mesh.AxisY, db)
	s.Op.Diff(q.V[2][off:off+nn], mesh.AxisZ, dc)
	for n := 0; n < nn; n++ {
		div := da[n] + db[n] + dc[n]
		rhs.S[SXX][off+n] = la*div + 2*mu*da[n]
		rhs.S[SYY][off+n] = la*div + 2*mu*db[n]
		rhs.S[SZZ][off+n] = la*div + 2*mu*dc[n]
	}
	// Shear components from symmetrized cross-derivatives.
	s.Op.Diff(q.V[0][off:off+nn], mesh.AxisY, da) // dvx/dy
	s.Op.Diff(q.V[1][off:off+nn], mesh.AxisX, db) // dvy/dx
	for n := 0; n < nn; n++ {
		rhs.S[SXY][off+n] = mu * (da[n] + db[n])
	}
	s.Op.Diff(q.V[0][off:off+nn], mesh.AxisZ, da) // dvx/dz
	s.Op.Diff(q.V[2][off:off+nn], mesh.AxisX, db) // dvz/dx
	for n := 0; n < nn; n++ {
		rhs.S[SXZ][off+n] = mu * (da[n] + db[n])
	}
	s.Op.Diff(q.V[1][off:off+nn], mesh.AxisZ, da) // dvy/dz
	s.Op.Diff(q.V[2][off:off+nn], mesh.AxisY, db) // dvz/dy
	for n := 0; n < nn; n++ {
		rhs.S[SYZ][off+n] = mu * (da[n] + db[n])
	}

	// Velocity update from div S (div S)_i = d sigma_ij / dx_j.
	invRho := 1 / mat.Rho
	s.Op.Diff(q.S[SXX][off:off+nn], mesh.AxisX, da)
	s.Op.AddDiff(q.S[SXY][off:off+nn], mesh.AxisY, da)
	s.Op.AddDiff(q.S[SXZ][off:off+nn], mesh.AxisZ, da)
	s.Op.Diff(q.S[SXY][off:off+nn], mesh.AxisX, db)
	s.Op.AddDiff(q.S[SYY][off:off+nn], mesh.AxisY, db)
	s.Op.AddDiff(q.S[SYZ][off:off+nn], mesh.AxisZ, db)
	s.Op.Diff(q.S[SXZ][off:off+nn], mesh.AxisX, dc)
	s.Op.AddDiff(q.S[SYZ][off:off+nn], mesh.AxisY, dc)
	s.Op.AddDiff(q.S[SZZ][off:off+nn], mesh.AxisZ, dc)
	for n := 0; n < nn; n++ {
		rhs.V[0][off+n] = invRho * da[n]
		rhs.V[1][off+n] = invRho * db[n]
		rhs.V[2][off+n] = invRho * dc[n]
	}
}

// traction computes T = S.n for a face with unit normal along axis with
// the given sign, returning the 3 traction components of node idx.
func traction(q *ElasticState, idx int, axis int, sign float64) (tx, ty, tz float64) {
	switch axis {
	case 0:
		return sign * q.S[SXX][idx], sign * q.S[SXY][idx], sign * q.S[SXZ][idx]
	case 1:
		return sign * q.S[SXY][idx], sign * q.S[SYY][idx], sign * q.S[SYZ][idx]
	default:
		return sign * q.S[SXZ][idx], sign * q.S[SYZ][idx], sign * q.S[SZZ][idx]
	}
}

// FluxKernel adds the interface part of the RHS. The interface states are
// obtained from the plane-wave characteristics: P-wave impedance acts on
// the normal components, S-wave impedance on the tangential ones. With
// CentralFlux the impedance penalties vanish and the interface states are
// plain averages.
func (s *ElasticSolver) FluxKernel(q, rhs *ElasticState) {
	m := s.Op.M
	for e := 0; e < m.NumElem; e++ {
		for f := mesh.Face(0); f < mesh.NumFaces; f++ {
			s.fluxFace(q, rhs, e, f)
		}
	}
}

// FluxKernelFace exposes per-face flux computation for the batched PIM
// schedule.
func (s *ElasticSolver) FluxKernelFace(q, rhs *ElasticState, e int, f mesh.Face) {
	s.fluxFace(q, rhs, e, f)
}

func (s *ElasticSolver) fluxFace(q, rhs *ElasticState, e int, f mesh.Face) {
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

	zp, zs := mat.PImpedance(), mat.SImpedance()
	la, mu := mat.Lambda, mat.Mu
	invRho := 1 / mat.Rho
	for g, n := range myNodes {
		idx := off + n
		// Minus (interior) side.
		var vm, vp [3]float64
		for d := 0; d < 3; d++ {
			vm[d] = q.V[d][idx]
		}
		txm, tym, tzm := traction(q, idx, axis, sign)
		var txp, typ, tzp float64
		if ok {
			nidx := nbOff + nbNodes[g]
			for d := 0; d < 3; d++ {
				vp[d] = q.V[d][nidx]
			}
			txp, typ, tzp = traction(q, nidx, axis, sign)
		} else if s.FreeSurf {
			// Traction-free surface: mirror traction, keep velocity.
			vp = vm
			txp, typ, tzp = -txm, -tym, -tzm
		} else {
			// Rigid: mirror velocity, keep traction.
			for d := 0; d < 3; d++ {
				vp[d] = -vm[d]
			}
			txp, typ, tzp = txm, tym, tzm
		}

		// Jumps (plus minus minus) and averages.
		dT := [3]float64{txp - txm, typ - tym, tzp - tzm}
		var dV, avgV, avgT [3]float64
		avgT = [3]float64{(txp + txm) / 2, (typ + tym) / 2, (tzp + tzm) / 2}
		for d := 0; d < 3; d++ {
			dV[d] = vp[d] - vm[d]
			avgV[d] = (vp[d] + vm[d]) / 2
		}

		// Normal direction as a vector.
		var nv [3]float64
		nv[axis] = sign

		// Interface states.
		var vStar, tStar [3]float64
		switch s.Flux {
		case CentralFlux:
			vStar, tStar = avgV, avgT
		case RiemannFlux:
			// Split jumps into normal and tangential parts.
			dTn := dT[axis] * sign // scalar n . dT
			dVn := dV[axis] * sign
			for d := 0; d < 3; d++ {
				dTt := dT[d] - nv[d]*dTn
				dVt := dV[d] - nv[d]*dVn
				vStar[d] = avgV[d] + nv[d]*dTn/(2*zp) + dTt/(2*zs)
				tStar[d] = avgT[d] + nv[d]*(zp/2)*dVn + (zs/2)*dVt
			}
		}

		// Stress equation surface correction: replace the face velocity by
		// v* (lift times the difference from the interior value).
		dvx := vStar[0] - vm[0]
		dvy := vStar[1] - vm[1]
		dvz := vStar[2] - vm[2]
		ndv := [3]float64{dvx, dvy, dvz}[axis] * sign // n . (v*-v-)
		rhs.S[SXX][idx] += lift * (la*ndv + 2*mu*nv[0]*dvx)
		rhs.S[SYY][idx] += lift * (la*ndv + 2*mu*nv[1]*dvy)
		rhs.S[SZZ][idx] += lift * (la*ndv + 2*mu*nv[2]*dvz)
		rhs.S[SXY][idx] += lift * mu * (nv[0]*dvy + nv[1]*dvx)
		rhs.S[SXZ][idx] += lift * mu * (nv[0]*dvz + nv[2]*dvx)
		rhs.S[SYZ][idx] += lift * mu * (nv[1]*dvz + nv[2]*dvy)

		// Velocity equation surface correction: replace the face traction
		// by T*.
		rhs.V[0][idx] += lift * invRho * (tStar[0] - txm)
		rhs.V[1][idx] += lift * invRho * (tStar[1] - tym)
		rhs.V[2][idx] += lift * invRho * (tStar[2] - tzm)
	}
}

// MaxStableDt returns a CFL-limited time step.
func (s *ElasticSolver) MaxStableDt(cfl float64) float64 {
	m := s.Op.M
	minDx := (m.Rule.Points[1] - m.Rule.Points[0]) * m.H / 2
	return cfl * minDx / s.Mat.MaxWaveSpeed()
}

// Energy returns the discrete elastic energy: kinetic plus strain energy,
// E = Int( rho |v|^2/2 + S : C^-1 S / 2 ).
func (s *ElasticSolver) Energy(q *ElasticState) float64 {
	m := s.Op.M
	nn := m.NodesPerEl
	u := s.scratch[3]
	var total float64
	for e := 0; e < m.NumElem; e++ {
		off := e * nn
		mat := s.Mat.ByElem[e]
		la, mu, rho := mat.Lambda, mat.Mu, mat.Rho
		// Compliance applied to the diagonal: eps_ii = (s_ii - la/(3la+2mu) tr)/2mu.
		c1 := 1 / (2 * mu)
		c2 := la / (2 * mu * (3*la + 2*mu))
		for n := 0; n < nn; n++ {
			i := off + n
			sxx, syy, szz := q.S[SXX][i], q.S[SYY][i], q.S[SZZ][i]
			sxy, sxz, syz := q.S[SXY][i], q.S[SXZ][i], q.S[SYZ][i]
			tr := sxx + syy + szz
			exx := c1*sxx - c2*tr
			eyy := c1*syy - c2*tr
			ezz := c1*szz - c2*tr
			strain := (sxx*exx + syy*eyy + szz*ezz + 2*c1*(sxy*sxy+sxz*sxz+syz*syz)) / 2
			kin := rho * (q.V[0][i]*q.V[0][i] + q.V[1][i]*q.V[1][i] + q.V[2][i]*q.V[2][i]) / 2
			u[n] = strain + kin
		}
		total += s.Op.IntegrateElement(u)
	}
	return total
}

// PlaneWavePX initializes a plane P-wave moving in +x:
// vx = sin(2 pi k (x - cp t)), sxx = -rho cp vx, syy = szz = -(lambda/cp) vx.
func PlaneWavePX(m *mesh.Mesh, mat material.Elastic, k int, q *ElasticState) {
	cp := mat.PWaveSpeed()
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			vx := math.Sin(2 * math.Pi * float64(k) * x)
			i := e*nn + n
			q.V[0][i] = vx
			q.S[SXX][i] = -mat.Rho * cp * vx
			q.S[SYY][i] = -(mat.Lambda / cp) * vx
			q.S[SZZ][i] = -(mat.Lambda / cp) * vx
		}
	}
}

// PlaneWaveSX initializes a plane S-wave moving in +x with polarization y:
// vy = sin(2 pi k (x - cs t)), sxy = -rho cs vy.
func PlaneWaveSX(m *mesh.Mesh, mat material.Elastic, k int, q *ElasticState) {
	cs := mat.SWaveSpeed()
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			vy := math.Sin(2 * math.Pi * float64(k) * x)
			i := e*nn + n
			q.V[1][i] = vy
			q.S[SXY][i] = -mat.Rho * cs * vy
		}
	}
}

// PlaneWavePXAt returns the analytic P-wave vx at (x, t).
func PlaneWavePXAt(mat material.Elastic, k int, x, t float64) float64 {
	return math.Sin(2 * math.Pi * float64(k) * (x - mat.PWaveSpeed()*t))
}

// PlaneWaveSXAt returns the analytic S-wave vy at (x, t).
func PlaneWaveSXAt(mat material.Elastic, k int, x, t float64) float64 {
	return math.Sin(2 * math.Pi * float64(k) * (x - mat.SWaveSpeed()*t))
}
