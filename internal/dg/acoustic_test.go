package dg

import (
	"math"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

var waterLike = material.Acoustic{Kappa: 2.25, Rho: 1.0} // c = 1.5

func newAcoustic(t testing.TB, ref, np int, flux FluxType) (*mesh.Mesh, *AcousticSolver) {
	t.Helper()
	m := mesh.New(ref, np, true)
	mat := material.UniformAcoustic(m.NumElem, waterLike)
	return m, NewAcousticSolver(m, mat, flux)
}

// maxErr compares computed pressure against the analytic plane wave.
func acousticMaxErr(m *mesh.Mesh, q *AcousticState, k int, t float64) float64 {
	var worst float64
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := PlaneWaveXAt(waterLike, k, x, t)
			if err := math.Abs(q.P[e*nn+n] - want); err > worst {
				worst = err
			}
		}
	}
	return worst
}

func TestAcousticPlaneWavePropagation(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m, s := newAcoustic(t, 1, 8, flux)
		q := NewAcousticState(m)
		PlaneWaveX(m, waterLike, 1, q)
		it := NewAcousticIntegrator(s)
		dt := s.MaxStableDt(0.4)
		steps := 50
		tEnd := it.Run(q, 0, dt, steps)
		if err := acousticMaxErr(m, q, 1, tEnd); err > 2e-4 {
			t.Errorf("flux=%v: plane wave error %g after %d steps, want < 2e-4", flux, err, steps)
		}
	}
}

func TestAcousticTemporalConvergenceOrder(t *testing.T) {
	// Halving dt should shrink the time-discretization error by ~2^4 for
	// the 4th-order LSRK scheme. Compare against a dt-refined reference to
	// factor out the (fixed) spatial error.
	m, s := newAcoustic(t, 1, 6, RiemannFlux)
	tEnd := 0.08
	solve := func(steps int) *AcousticState {
		q := NewAcousticState(m)
		PlaneWaveX(m, waterLike, 1, q)
		it := NewAcousticIntegrator(s)
		it.Run(q, 0, tEnd/float64(steps), steps)
		return q
	}
	ref := solve(256)
	diff := func(a, b *AcousticState) float64 {
		var worst float64
		for i := range a.P {
			if d := math.Abs(a.P[i] - b.P[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	e1 := diff(solve(16), ref)
	e2 := diff(solve(32), ref)
	order := math.Log2(e1 / e2)
	if order < 3.5 || order > 5.5 {
		t.Errorf("observed temporal order %.2f (e1=%g e2=%g), want ~4", order, e1, e2)
	}
}

func TestAcousticEnergyConservedCentralFlux(t *testing.T) {
	m, s := newAcoustic(t, 1, 6, CentralFlux)
	q := NewAcousticState(m)
	PlaneWaveX(m, waterLike, 1, q)
	it := NewAcousticIntegrator(s)
	e0 := s.Energy(q)
	dt := s.MaxStableDt(0.3)
	it.Run(q, 0, dt, 100)
	e1 := s.Energy(q)
	if rel := math.Abs(e1-e0) / e0; rel > 1e-6 {
		t.Errorf("central flux energy drift %g after 100 steps, want < 1e-6", rel)
	}
	if e0 <= 0 {
		t.Fatalf("initial energy %g must be positive", e0)
	}
}

func TestAcousticEnergyDissipatedRiemannFlux(t *testing.T) {
	// Upwinding must never create energy, and on an under-resolved field it
	// must strictly dissipate.
	m, s := newAcoustic(t, 1, 4, RiemannFlux) // coarse: dissipation visible
	q := NewAcousticState(m)
	PlaneWaveX(m, waterLike, 2, q) // under-resolved at np=4
	it := NewAcousticIntegrator(s)
	e0 := s.Energy(q)
	dt := s.MaxStableDt(0.3)
	prev := e0
	for i := 0; i < 20; i++ {
		it.Run(q, 0, dt, 5)
		e := s.Energy(q)
		if e > prev*(1+1e-9) {
			t.Fatalf("Riemann flux increased energy at iter %d: %g -> %g", i, prev, e)
		}
		prev = e
	}
	if prev >= e0*0.9999 {
		t.Errorf("Riemann flux on under-resolved wave dissipated only to %g of %g", prev, e0)
	}
}

func TestAcousticZeroStateStaysZero(t *testing.T) {
	m, s := newAcoustic(t, 1, 4, RiemannFlux)
	q := NewAcousticState(m)
	it := NewAcousticIntegrator(s)
	it.Run(q, 0, s.MaxStableDt(0.4), 10)
	for i := range q.P {
		if q.P[i] != 0 || q.V[0][i] != 0 || q.V[1][i] != 0 || q.V[2][i] != 0 {
			t.Fatal("zero state did not stay zero")
		}
	}
}

// A spatially constant pressure with zero velocity is a steady state of the
// periodic problem (all derivatives and jumps vanish).
func TestAcousticConstantStateIsSteady(t *testing.T) {
	for _, flux := range []FluxType{CentralFlux, RiemannFlux} {
		m, s := newAcoustic(t, 1, 5, flux)
		q := NewAcousticState(m)
		for i := range q.P {
			q.P[i] = 3.7
		}
		rhs := NewAcousticState(m)
		s.RHS(q, rhs)
		for i := range rhs.P {
			if math.Abs(rhs.P[i]) > 1e-11 || math.Abs(rhs.V[0][i]) > 1e-11 {
				t.Fatalf("flux=%v: constant state has nonzero RHS at %d: p=%g vx=%g",
					flux, i, rhs.P[i], rhs.V[0][i])
			}
		}
	}
}

func TestAcousticRigidWallReflection(t *testing.T) {
	// Non-periodic box with rigid walls: normal velocity at the wall nodes
	// must not generate outflow; total energy must stay bounded (reflection,
	// not loss through the boundary) with the central flux.
	m := mesh.New(1, 6, false)
	mat := material.UniformAcoustic(m.NumElem, waterLike)
	s := NewAcousticSolver(m, mat, CentralFlux)
	s.Boundary = RigidWall
	q := NewAcousticState(m)
	// Gaussian pressure pulse in the middle.
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
			q.P[e*nn+n] = math.Exp(-r2 / 0.05)
		}
	}
	e0 := s.Energy(q)
	it := NewAcousticIntegrator(s)
	it.Run(q, 0, s.MaxStableDt(0.15), 60)
	e1 := s.Energy(q)
	// The spatial operator conserves energy exactly; the only drift allowed
	// is the RK scheme's O(dt^5)-per-step dissipation on resolved modes.
	if rel := math.Abs(e1-e0) / e0; rel > 1e-4 {
		t.Errorf("rigid wall + central flux should conserve energy, drift %g", rel)
	}
}

func TestAcousticFluxKernelFaceDecomposition(t *testing.T) {
	// Summing FluxKernelFace over all 6 faces must equal FluxKernel — the
	// property the batched Figure 7 schedule depends on.
	m, s := newAcoustic(t, 1, 4, RiemannFlux)
	q := NewAcousticState(m)
	PlaneWaveX(m, waterLike, 1, q)
	// Perturb to break symmetry.
	for i := range q.P {
		q.V[1][i] = 0.1 * math.Sin(float64(i))
	}
	whole := NewAcousticState(m)
	s.VolumeKernel(q, whole)
	s.FluxKernel(q, whole)

	parts := NewAcousticState(m)
	s.VolumeKernel(q, parts)
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		for e := 0; e < m.NumElem; e++ {
			s.FluxKernelFace(q, parts, e, f)
		}
	}
	for i := range whole.P {
		if math.Abs(whole.P[i]-parts.P[i]) > 1e-12 {
			t.Fatalf("per-face flux decomposition differs at %d: %g vs %g", i, whole.P[i], parts.P[i])
		}
	}
}

// Slices aliases the state's storage in P, V order (the integrator updates
// a state through it); Copy is deep.
func TestAcousticStateOps(t *testing.T) {
	m := mesh.New(0, 3, true)
	a := NewAcousticState(m)
	for i := range a.P {
		a.P[i] = float64(i)
		a.V[2][i] = 2 * float64(i)
	}
	b := a.Copy()
	xs := a.Slices()
	xs[0][1], xs[3][1] = 3, 6
	if a.P[1] != 3 || a.V[2][1] != 6 {
		t.Error("Slices does not alias P, V in order")
	}
	if b.P[1] != 1 || b.V[2][1] != 2 {
		t.Error("Copy did not deep-copy")
	}
}

func TestRickerWavelet(t *testing.T) {
	// Peak value 1 at t = t0; zero crossings at t0 +- 1/(pi f sqrt(2)).
	f0, t0 := 10.0, 0.1
	if v := Ricker(f0, t0, t0); math.Abs(v-1) > 1e-12 {
		t.Errorf("Ricker peak = %g, want 1", v)
	}
	zc := t0 + 1/(math.Pi*f0*math.Sqrt2)
	if v := Ricker(f0, t0, zc); math.Abs(v) > 1e-12 {
		t.Errorf("Ricker at zero crossing = %g, want 0", v)
	}
	if v := Ricker(f0, t0, t0+1.0); math.Abs(v) > 1e-10 {
		t.Errorf("Ricker tail = %g, want ~0", v)
	}
}

func TestPointSourceInjectsAndPropagates(t *testing.T) {
	m := mesh.New(1, 6, false)
	mat := material.UniformAcoustic(m.NumElem, waterLike)
	s := NewAcousticSolver(m, mat, RiemannFlux)
	q := NewAcousticState(m)
	it := NewAcousticIntegrator(s)
	src := NewPointSource(m, 0.5, 0.5, 0.5, 1.0)
	src.PeakFreq, src.Delay = 6, 1.0/6
	rcv := NewReceiver(m, 0.9, 0.5, 0.5)
	it.Source = func(tm float64, rhs *AcousticState) { src.AddTo(tm, rhs.P, m.NodesPerEl) }
	dt := s.MaxStableDt(0.3)
	tm := 0.0
	for i := 0; i < 220; i++ {
		it.Step(q, tm, dt)
		tm += dt
		rcv.Record(tm, q.P, m.NodesPerEl)
	}
	pt, pv := rcv.PeakAbs()
	if pv == 0 {
		t.Fatal("receiver recorded nothing; source did not propagate")
	}
	// Arrival time should be roughly distance/c after the source delay.
	wantArrival := src.Delay + 0.4/waterLike.SoundSpeed()
	if pt < wantArrival*0.5 || pt > wantArrival*2.5 {
		t.Errorf("peak at t=%g, expected near %g", pt, wantArrival)
	}
}

// Degenerate geometry: a single periodic element (refinement 0) is its
// own neighbor across every face; the plane wave must still propagate.
func TestAcousticSingleElementPeriodic(t *testing.T) {
	m := mesh.New(0, 8, true)
	s := NewAcousticSolver(m, material.UniformAcoustic(1, waterLike), RiemannFlux)
	q := NewAcousticState(m)
	PlaneWaveX(m, waterLike, 1, q)
	it := NewAcousticIntegrator(s)
	dt := s.MaxStableDt(0.4)
	tEnd := it.Run(q, 0, dt, 30)
	// With one degree-7 element spanning a full wavelength (8 points per
	// wavelength), ~1e-2 is the expected spatial accuracy; the test's point
	// is that the self-neighbor face exchange is correct and stable.
	if err := acousticMaxErr(m, q, 1, tEnd); err > 5e-2 {
		t.Errorf("single-element plane wave error %g", err)
	}
}

// Minimal polynomial order: np=2 (trilinear elements) must remain stable
// and conserve energy with the central flux.
func TestAcousticMinimalOrderStable(t *testing.T) {
	m := mesh.New(2, 2, true)
	s := NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, waterLike), CentralFlux)
	q := NewAcousticState(m)
	PlaneWaveX(m, waterLike, 1, q)
	it := NewAcousticIntegrator(s)
	e0 := s.Energy(q)
	it.Run(q, 0, s.MaxStableDt(0.2), 100)
	e1 := s.Energy(q)
	// Trilinear elements barely resolve the wave, so the RK scheme damps
	// the poorly-resolved modes; the invariants here are stability and
	// no energy growth.
	if e1 > e0*(1+1e-9) {
		t.Errorf("np=2 energy grew: %g -> %g", e0, e1)
	}
	if rel := math.Abs(e1-e0) / e0; rel > 1e-2 {
		t.Errorf("np=2 energy drift %g suggests instability", rel)
	}
}
