package dg

import (
	"fmt"
	"math"

	"wavepim/internal/mesh"
)

// The temporal integration scheme. The paper states "There are five
// integration steps in each time-step" (Section 2.2) and that Integration
// "operates on (volume and flux) contributions to update the variables, and
// requires auxiliaries storage" (Figure 2) — exactly the structure of the
// five-stage fourth-order low-storage Runge-Kutta scheme of Carpenter &
// Kennedy (1994), the standard integrator for nodal dG wave solvers
// (Hesthaven & Warburton). The "auxiliaries" are the single low-storage
// register k.

// LSRK5A and LSRK5B are the Carpenter-Kennedy 4th-order 5-stage low-storage
// Runge-Kutta coefficients.
var (
	LSRK5A = [5]float64{
		0,
		-567301805773.0 / 1357537059087.0,
		-2404267990393.0 / 2016746695238.0,
		-3550918686646.0 / 2091501179385.0,
		-1275806237668.0 / 842570457699.0,
	}
	LSRK5B = [5]float64{
		1432997174477.0 / 9575080441755.0,
		5161836677717.0 / 13612068292357.0,
		1720146321549.0 / 2090206949498.0,
		3134564353537.0 / 4481467310338.0,
		2277821191437.0 / 14882151754819.0,
	}
	// LSRK5C gives the stage times (fraction of dt), needed when the RHS is
	// time-dependent (e.g. a source term).
	LSRK5C = [5]float64{
		0,
		1432997174477.0 / 9575080441755.0,
		2526269341429.0 / 6820363962896.0,
		2006345519317.0 / 3224310063776.0,
		2802321613138.0 / 2924317926251.0,
	}
)

// NumStages is the number of RHS evaluations (and Integration kernel
// launches) per time-step.
const NumStages = 5

// State is a dG state: its variable arrays, always in the same order, each
// aliasing the state's storage.
type State interface {
	Slices() [][]float64
}

// Slices returns every variable array of the state.
func (s *AcousticState) Slices() [][]float64 {
	return [][]float64{s.P, s.V[0], s.V[1], s.V[2]}
}

// Slices returns every variable array of the state.
func (s *ElasticState) Slices() [][]float64 {
	out := make([][]float64, 0, NumStress+3)
	for c := range s.S {
		out = append(out, s.S[c])
	}
	for d := range s.V {
		out = append(out, s.V[d])
	}
	return out
}

// Slices returns every variable array of the state.
func (s *MaxwellState) Slices() [][]float64 {
	return [][]float64{s.E[0], s.E[1], s.E[2], s.H[0], s.H[1], s.H[2]}
}

// Integrator advances a state of any equation with the low-storage RK
// scheme. It owns the auxiliaries (Table 1: "Temporary storage for unknown
// variables needed during the temporal integration step") and the
// contributions buffer the RHS kernels fill.
type Integrator[S State] struct {
	rhs   func(q, rhs S)
	contr S           // RHS output ("contributions")
	aux   [][]float64 // low-storage register ("auxiliaries")
	contS [][]float64 // contr.Slices()
	// Source, if non-nil, is evaluated at each stage time after the RHS
	// and may add to it (a point source, a damping layer).
	Source func(t float64, rhs S)
}

func newIntegrator[S State](rhs func(q, rhs S), newState func(*mesh.Mesh) S, m *mesh.Mesh) *Integrator[S] {
	contr := newState(m)
	return &Integrator[S]{rhs: rhs, contr: contr, contS: contr.Slices(), aux: newState(m).Slices()}
}

// NewAcousticIntegrator allocates an acoustic integrator's storage.
func NewAcousticIntegrator(s *AcousticSolver) *Integrator[*AcousticState] {
	return newIntegrator(s.RHS, NewAcousticState, s.Op.M)
}

// NewElasticIntegrator allocates an elastic integrator's storage.
func NewElasticIntegrator(s *ElasticSolver) *Integrator[*ElasticState] {
	return newIntegrator(s.RHS, NewElasticState, s.Op.M)
}

// NewMaxwellIntegrator allocates a Maxwell integrator's storage.
func NewMaxwellIntegrator(s *MaxwellSolver) *Integrator[*MaxwellState] {
	return newIntegrator(s.RHS, NewMaxwellState, s.Op.M)
}

// Step advances q from time t by dt in five stages.
func (it *Integrator[S]) Step(q S, t, dt float64) {
	qs := q.Slices()
	for s := 0; s < NumStages; s++ {
		it.rhs(q, it.contr)
		if it.Source != nil {
			it.Source(t+LSRK5C[s]*dt, it.contr)
		}
		// aux = A[s]*aux + dt*contr ; q += B[s]*aux  (the Integration kernel)
		for v, aux := range it.aux {
			scale(aux, LSRK5A[s])
			addScaled(aux, dt, it.contS[v])
			addScaled(qs[v], LSRK5B[s], aux)
		}
	}
}

// Run advances q for steps time-steps starting at time t0 and returns the
// final time.
func (it *Integrator[S]) Run(q S, t0, dt float64, steps int) float64 {
	t := t0
	for i := 0; i < steps; i++ {
		it.Step(q, t, dt)
		t += dt
	}
	return t
}

// ---------------------------------------------------------------------------
// Solver health guards (the top rung of the fault-recovery ladder)
// ---------------------------------------------------------------------------

// CheckFinite reports whether every value in every slice is finite.
func CheckFinite(xs ...[]float64) bool {
	for _, x := range xs {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// NormSq returns the summed squared l2 norm of the slices.
func NormSq(xs ...[]float64) float64 {
	var s float64
	for _, x := range xs {
		for _, v := range x {
			s += v * v
		}
	}
	return s
}

// HealthError reports a solver blow-up detected by a health guard: a
// non-finite value or squared-norm growth beyond the allowed factor.
type HealthError struct {
	Step   int     // time-step at which the check failed
	NormSq float64 // squared field norm at the check (NaN if non-finite)
	Reason string  // "non-finite" or "norm blow-up"
}

func (e *HealthError) Error() string {
	return fmt.Sprintf("dg: solver unhealthy at step %d: %s (|q|^2=%g)", e.Step, e.Reason, e.NormSq)
}

// CheckHealth evaluates the guard on a set of variable slices against a
// reference squared norm: nil when healthy, a *HealthError otherwise.
// factor <= 0 disables the norm-growth check (finiteness is always
// checked).
func CheckHealth(step int, refNormSq, factor float64, xs ...[]float64) error {
	if !CheckFinite(xs...) {
		return &HealthError{Step: step, NormSq: math.NaN(), Reason: "non-finite"}
	}
	n := NormSq(xs...)
	if factor > 0 && refNormSq > 0 && n > factor*refNormSq {
		return &HealthError{Step: step, NormSq: n, Reason: "norm blow-up"}
	}
	return nil
}

// RunGuarded advances q like Run, checking solver health every checkEvery
// steps (and at the end). On the first failed check it stops and returns
// the error along with the time reached; the reference norm is the state's
// norm at entry. This is the plain-solver counterpart of the Session-level
// checkpoint/rollback ladder (which can also rewind, not just stop).
func (it *Integrator[S]) RunGuarded(q S, t0, dt float64, steps, checkEvery int, factor float64) (float64, error) {
	if checkEvery <= 0 {
		checkEvery = 1
	}
	ref := NormSq(q.Slices()...)
	t := t0
	for i := 0; i < steps; i++ {
		it.Step(q, t, dt)
		t += dt
		if (i+1)%checkEvery == 0 || i == steps-1 {
			if err := CheckHealth(i+1, ref, factor, q.Slices()...); err != nil {
				return t, err
			}
		}
	}
	return t, nil
}
