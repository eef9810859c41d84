package dg

import (
	"math"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

var glassLike = material.Dielectric{Eps: 2.25, Mu: 1.0} // c = 2/3, eta = 2/3

func TestDielectricProperties(t *testing.T) {
	if c := glassLike.LightSpeed(); math.Abs(c-2.0/3) > 1e-15 {
		t.Errorf("c = %g want 2/3", c)
	}
	if z := glassLike.Impedance(); math.Abs(z-2.0/3) > 1e-15 {
		t.Errorf("eta = %g want 2/3", z)
	}
	if material.Vacuum.LightSpeed() != 1 {
		t.Error("vacuum c != 1 in natural units")
	}
}

func maxwellMaxErr(m *mesh.Mesh, q *MaxwellState, k int, tm float64, mat material.Dielectric) float64 {
	var worst float64
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := PlaneWaveEMAt(mat, k, x, tm)
			if d := math.Abs(q.E[1][e*nn+n] - want); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestMaxwellPlaneWavePropagation(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m := mesh.New(1, 8, true)
		s := NewMaxwellSolver(m, glassLike, flux)
		q := NewMaxwellState(m)
		PlaneWaveEM(m, glassLike, 1, q)
		it := NewMaxwellIntegrator(s)
		dt := s.MaxStableDt(0.4)
		const steps = 50
		it.Run(q, 0, dt, steps)
		if err := maxwellMaxErr(m, q, 1, dt*steps, glassLike); err > 3e-4 {
			t.Errorf("flux=%v: EM plane wave error %g", flux, err)
		}
	}
}

func TestMaxwellEnergyConservedCentral(t *testing.T) {
	m := mesh.New(1, 6, true)
	s := NewMaxwellSolver(m, glassLike, CentralFlux)
	q := NewMaxwellState(m)
	PlaneWaveEM(m, glassLike, 1, q)
	it := NewMaxwellIntegrator(s)
	e0 := s.Energy(q)
	if e0 <= 0 {
		t.Fatal("nonpositive initial energy")
	}
	it.Run(q, 0, s.MaxStableDt(0.3), 100)
	e1 := s.Energy(q)
	if rel := math.Abs(e1-e0) / e0; rel > 1e-6 {
		t.Errorf("central flux EM energy drift %g", rel)
	}
}

func TestMaxwellEnergyNeverGrowsRiemann(t *testing.T) {
	m := mesh.New(1, 4, true)
	s := NewMaxwellSolver(m, glassLike, RiemannFlux)
	q := NewMaxwellState(m)
	PlaneWaveEM(m, glassLike, 2, q) // under-resolved
	nn := m.NodesPerEl
	// Mix all six components.
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			i := e*nn + n
			q.E[0][i] = 0.2 * math.Sin(2*math.Pi*(y+z))
			q.E[2][i] = 0.3 * math.Cos(2*math.Pi*y)
			q.H[0][i] = -0.1 * math.Sin(2*math.Pi*z)
			q.H[1][i] = 0.15 * math.Cos(2*math.Pi*(x+z))
		}
	}
	it := NewMaxwellIntegrator(s)
	prev := s.Energy(q)
	dt := s.MaxStableDt(0.3)
	for i := 0; i < 15; i++ {
		it.Run(q, 0, dt, 5)
		e := s.Energy(q)
		if e > prev*(1+1e-9) {
			t.Fatalf("Riemann EM flux grew energy at iter %d: %g -> %g", i, prev, e)
		}
		prev = e
	}
}

// Divergence preservation: with div E = div H = 0 initially (plane waves),
// the discrete solution's fields stay divergence-free to discretization
// accuracy. Checked through a weaker invariant that is exact for the
// scheme: a uniform static field is a steady state.
func TestMaxwellUniformFieldIsSteady(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m := mesh.New(1, 5, true)
		s := NewMaxwellSolver(m, glassLike, flux)
		q := NewMaxwellState(m)
		for i := range q.E[0] {
			q.E[0][i], q.E[1][i], q.E[2][i] = 1, -2, 0.5
			q.H[0][i], q.H[1][i], q.H[2][i] = 3, 0.25, -1
		}
		rhs := NewMaxwellState(m)
		s.RHS(q, rhs)
		for d := 0; d < 3; d++ {
			for i := range rhs.E[d] {
				if math.Abs(rhs.E[d][i]) > 1e-11 || math.Abs(rhs.H[d][i]) > 1e-11 {
					t.Fatalf("flux=%v: uniform field has nonzero RHS", flux)
				}
			}
		}
	}
}

// All three cyclic channel orientations: plane waves along y and z
// propagate at the same speed as along x (isotropy of the discretization).
func TestMaxwellIsotropy(t *testing.T) {
	m := mesh.New(1, 6, true)
	s := NewMaxwellSolver(m, glassLike, RiemannFlux)
	dt := s.MaxStableDt(0.3)
	const steps = 30
	// Wave along +z with E along x: Ex = sin(2 pi z), Hy = +Ex/eta
	// (check via Maxwell: dEx/dt = -(1/eps) dHy/dz, so f(z-ct) needs
	// Hy = f/eta; equivalently E x H = x^ x y^ = +z^).
	q := NewMaxwellState(m)
	eta := glassLike.Impedance()
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			_, _, z := m.NodePosition(e, n)
			ex := math.Sin(2 * math.Pi * z)
			q.E[0][e*nn+n] = ex
			q.H[1][e*nn+n] = ex / eta
		}
	}
	it := NewMaxwellIntegrator(s)
	it.Run(q, 0, dt, steps)
	var worstZ float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			_, _, z := m.NodePosition(e, n)
			want := PlaneWaveEMAt(glassLike, 1, z, dt*steps)
			if d := math.Abs(q.E[0][e*nn+n] - want); d > worstZ {
				worstZ = d
			}
		}
	}
	// Reference: the x-propagating wave at identical resolution.
	qx := NewMaxwellState(m)
	PlaneWaveEM(m, glassLike, 1, qx)
	itx := NewMaxwellIntegrator(s)
	itx.Run(qx, 0, dt, steps)
	worstX := maxwellMaxErr(m, qx, 1, dt*steps, glassLike)
	// Isotropy: the two directions err alike (the absolute size is set by
	// the np=6 resolution, not the orientation).
	if worstZ > 2.5*worstX+1e-12 || worstX > 2.5*worstZ+1e-12 {
		t.Errorf("anisotropic errors: x-wave %g vs z-wave %g", worstX, worstZ)
	}
	if worstZ > 2e-2 {
		t.Errorf("z-propagating wave error %g too large", worstZ)
	}
}

// Slices aliases the state's storage in E, H order; Copy is deep.
func TestMaxwellStateOps(t *testing.T) {
	m := mesh.New(0, 3, true)
	a := NewMaxwellState(m)
	for i := range a.E[0] {
		a.E[0][i] = float64(i)
		a.H[2][i] = -float64(i)
	}
	b := a.Copy()
	xs := a.Slices()
	xs[0][2], xs[5][2] = 6, -6
	if a.E[0][2] != 6 || a.H[2][2] != -6 {
		t.Error("Slices does not alias E, H in order")
	}
	if b.E[0][2] != 2 || b.H[2][2] != -2 {
		t.Error("Copy not deep")
	}
}

func TestCyc(t *testing.T) {
	for a, want := range [][2]int{{1, 2}, {2, 0}, {0, 1}} {
		b, c := cyc(a)
		if b != want[0] || c != want[1] {
			t.Errorf("cyc(%d) = (%d,%d) want %v", a, b, c, want)
		}
	}
}
