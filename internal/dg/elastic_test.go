package dg

import (
	"math"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// rockLike has cp = 2, cs = 1.
var rockLike = material.Elastic{Lambda: 2.0, Mu: 1.0, Rho: 1.0}

func newElastic(t testing.TB, ref, np int, flux FluxType) (*mesh.Mesh, *ElasticSolver) {
	t.Helper()
	m := mesh.New(ref, np, true)
	mat := material.UniformElastic(m.NumElem, rockLike)
	return m, NewElasticSolver(m, mat, flux)
}

func TestElasticMaterialSpeeds(t *testing.T) {
	if c := rockLike.PWaveSpeed(); math.Abs(c-2) > 1e-15 {
		t.Errorf("cp=%g want 2", c)
	}
	if c := rockLike.SWaveSpeed(); math.Abs(c-1) > 1e-15 {
		t.Errorf("cs=%g want 1", c)
	}
	if z := rockLike.PImpedance(); math.Abs(z-2) > 1e-15 {
		t.Errorf("Zp=%g want 2", z)
	}
}

func elasticMaxErrV(m *mesh.Mesh, q *ElasticState, comp, k int, c float64, t float64) float64 {
	var worst float64
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := math.Sin(2 * math.Pi * float64(k) * (x - c*t))
			if err := math.Abs(q.V[comp][e*nn+n] - want); err > worst {
				worst = err
			}
		}
	}
	return worst
}

func TestElasticPlanePWave(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m, s := newElastic(t, 1, 8, flux)
		q := NewElasticState(m)
		PlaneWavePX(m, rockLike, 1, q)
		it := NewElasticIntegrator(s)
		dt := s.MaxStableDt(0.4)
		tEnd := it.Run(q, 0, dt, 50)
		if err := elasticMaxErrV(m, q, 0, 1, rockLike.PWaveSpeed(), tEnd); err > 5e-4 {
			t.Errorf("flux=%v: P-wave error %g, want < 5e-4", flux, err)
		}
	}
}

func TestElasticPlaneSWave(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m, s := newElastic(t, 1, 8, flux)
		q := NewElasticState(m)
		PlaneWaveSX(m, rockLike, 1, q)
		it := NewElasticIntegrator(s)
		dt := s.MaxStableDt(0.4)
		tEnd := it.Run(q, 0, dt, 50)
		if err := elasticMaxErrV(m, q, 1, 1, rockLike.SWaveSpeed(), tEnd); err > 5e-4 {
			t.Errorf("flux=%v: S-wave error %g, want < 5e-4", flux, err)
		}
	}
}

func TestElasticEnergyConservedCentralFlux(t *testing.T) {
	m, s := newElastic(t, 1, 6, CentralFlux)
	q := NewElasticState(m)
	PlaneWavePX(m, rockLike, 1, q)
	it := NewElasticIntegrator(s)
	e0 := s.Energy(q)
	if e0 <= 0 {
		t.Fatalf("initial energy %g must be positive", e0)
	}
	it.Run(q, 0, s.MaxStableDt(0.2), 100)
	e1 := s.Energy(q)
	if rel := math.Abs(e1-e0) / e0; rel > 1e-5 {
		t.Errorf("central flux energy drift %g after 100 steps", rel)
	}
}

func TestElasticEnergyNeverGrowsRiemann(t *testing.T) {
	m, s := newElastic(t, 1, 4, RiemannFlux)
	q := NewElasticState(m)
	PlaneWavePX(m, rockLike, 2, q) // under-resolved
	// Mix in an S-wave so both impedance channels are exercised.
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			vy := 0.5 * math.Sin(4*math.Pi*x)
			i := e*nn + n
			q.V[1][i] += vy
			q.S[SXY][i] += -rockLike.Rho * rockLike.SWaveSpeed() * vy
		}
	}
	it := NewElasticIntegrator(s)
	prev := s.Energy(q)
	dt := s.MaxStableDt(0.3)
	for i := 0; i < 20; i++ {
		it.Run(q, 0, dt, 5)
		e := s.Energy(q)
		if e > prev*(1+1e-9) {
			t.Fatalf("Riemann flux increased elastic energy at iter %d: %g -> %g", i, prev, e)
		}
		prev = e
	}
}

func TestElasticConstantVelocityIsSteadyPeriodic(t *testing.T) {
	// A uniform translation (constant v, zero stress) has zero RHS on a
	// periodic mesh.
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m, s := newElastic(t, 1, 5, flux)
		q := NewElasticState(m)
		for i := range q.V[0] {
			q.V[0][i], q.V[1][i], q.V[2][i] = 1.5, -0.5, 2.0
		}
		rhs := NewElasticState(m)
		s.RHS(q, rhs)
		for c := 0; c < NumStress; c++ {
			for i := range rhs.S[c] {
				if math.Abs(rhs.S[c][i]) > 1e-11 {
					t.Fatalf("flux=%v: stress RHS %d nonzero: %g", flux, c, rhs.S[c][i])
				}
			}
		}
		for d := 0; d < 3; d++ {
			for i := range rhs.V[d] {
				if math.Abs(rhs.V[d][i]) > 1e-11 {
					t.Fatalf("flux=%v: velocity RHS nonzero: %g", flux, rhs.V[d][i])
				}
			}
		}
	}
}

func TestElasticHydrostaticLikeAcoustic(t *testing.T) {
	// With mu = 0 the elastic system degenerates to the acoustic one
	// (sxx = syy = szz = -p, kappa = lambda). Evolve both and compare.
	fluid := material.Elastic{Lambda: 2.25, Mu: 0, Rho: 1.0}
	m := mesh.New(1, 6, true)
	emat := material.UniformElastic(m.NumElem, fluid)
	es := NewElasticSolver(m, emat, CentralFlux)
	eq := NewElasticState(m)

	amat := material.UniformAcoustic(m.NumElem, material.Acoustic{Kappa: 2.25, Rho: 1.0})
	as := NewAcousticSolver(m, amat, CentralFlux)
	aq := NewAcousticState(m)
	PlaneWaveX(m, material.Acoustic{Kappa: 2.25, Rho: 1.0}, 1, aq)

	nn := m.NodesPerEl
	for i := 0; i < m.NumElem*nn; i++ {
		eq.S[SXX][i] = -aq.P[i]
		eq.S[SYY][i] = -aq.P[i]
		eq.S[SZZ][i] = -aq.P[i]
		eq.V[0][i] = aq.V[0][i]
	}
	dt := as.MaxStableDt(0.3)
	ait := NewAcousticIntegrator(as)
	eit := NewElasticIntegrator(es)
	ait.Run(aq, 0, dt, 30)
	eit.Run(eq, 0, dt, 30)
	var worst float64
	for i := 0; i < m.NumElem*nn; i++ {
		if d := math.Abs(-eq.S[SXX][i] - aq.P[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-10 {
		t.Errorf("mu=0 elastic diverged from acoustic by %g", worst)
	}
}

func TestElasticFreeSurfaceTractionBounded(t *testing.T) {
	// Non-periodic box with a free surface: energy must not grow.
	m := mesh.New(1, 5, false)
	mat := material.UniformElastic(m.NumElem, rockLike)
	s := NewElasticSolver(m, mat, RiemannFlux)
	q := NewElasticState(m)
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
			q.V[2][e*nn+n] = math.Exp(-r2 / 0.05)
		}
	}
	e0 := s.Energy(q)
	it := NewElasticIntegrator(s)
	dt := s.MaxStableDt(0.3)
	prev := e0
	for i := 0; i < 10; i++ {
		it.Run(q, 0, dt, 5)
		e := s.Energy(q)
		if e > prev*(1+1e-9) {
			t.Fatalf("free surface grew energy: %g -> %g", prev, e)
		}
		prev = e
	}
}

// Slices aliases the state's storage in S, V order; Copy is deep.
func TestElasticStateOps(t *testing.T) {
	m := mesh.New(0, 3, true)
	a := NewElasticState(m)
	for i := range a.S[SXY] {
		a.S[SXY][i] = float64(i)
		a.V[0][i] = -float64(i)
	}
	b := a.Copy()
	xs := a.Slices()
	xs[SXY][2], xs[NumStress][2] = 6, -6
	if a.S[SXY][2] != 6 || a.V[0][2] != -6 {
		t.Errorf("Slices does not alias S, V in order: %g %g", a.S[SXY][2], a.V[0][2])
	}
	if b.S[SXY][2] != 2 {
		t.Error("Copy not deep")
	}
}

func TestElasticRiemannDtMatchesCFL(t *testing.T) {
	m, s := newElastic(t, 2, 8, RiemannFlux)
	dt := s.MaxStableDt(0.5)
	minDx := (m.Rule.Points[1] - m.Rule.Points[0]) * m.H / 2
	want := 0.5 * minDx / 2.0 // cp = 2
	if math.Abs(dt-want) > 1e-15 {
		t.Errorf("dt=%g want %g", dt, want)
	}
}
