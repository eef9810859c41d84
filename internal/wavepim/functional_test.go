package wavepim

import (
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

var fnMat = material.Acoustic{Kappa: 2.25, Rho: 1.0}

// relErr compares state arrays with a mixed absolute/relative tolerance
// appropriate for float32-vs-float64 comparison.
func maxRelErr(a, b []float64) float64 {
	var worst float64
	for i := range a {
		scale := math.Max(math.Abs(a[i]), math.Abs(b[i]))
		// Absolute floor: RHS values reach O(100) (lift factors), so
		// float32 round-off leaves absolute residues up to ~1e-5 even
		// where the exact value is zero.
		if scale < 1e-2 {
			scale = 1e-2
		}
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func acousticStates(t *testing.T, m *mesh.Mesh) (*dg.AcousticState, *dg.AcousticState) {
	t.Helper()
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, fnMat, 1, q)
	// Add off-axis structure so all three axes and all variables are
	// exercised.
	nn := m.NodesPerEl
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			x, y, z := m.NodePosition(e, n)
			i := e*nn + n
			q.P[i] += 0.3 * math.Sin(2*math.Pi*y) * math.Cos(2*math.Pi*z)
			q.V[1][i] = 0.2 * math.Sin(2*math.Pi*(y+z))
			q.V[2][i] = -0.15 * math.Cos(2*math.Pi*(x+y))
		}
	}
	return q, q.Copy()
}

// The compiled PIM Volume+Flux programs must produce the same RHS as the
// reference dG solver, for both flux solvers. This is the core functional
// equivalence check of the reproduction: the entire dataflow of Figure 5
// executes in simulated crossbar cells.
func TestFunctionalAcousticRHSMatchesReference(t *testing.T) {
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		m := mesh.New(1, 4, true) // 8 elements, 64 nodes each
		q, _ := acousticStates(t, m)

		// Reference RHS in float64.
		ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, fnMat), flux)
		want := dg.NewAcousticState(m)
		ref.RHS(q, want)

		// PIM functional RHS.
		fa := functionalForTest(t, m, 1e-3, WithAcousticMaterial(fnMat), WithFlux(flux)).Acoustic()
		fa.Load(q)
		fa.RHSOnce()
		got := dg.NewAcousticState(m)
		fa.ReadRHS(got)

		if e := maxRelErr(got.P, want.P); e > 2e-4 {
			t.Errorf("flux=%v: pressure RHS rel err %g", flux, e)
		}
		for d := 0; d < 3; d++ {
			if e := maxRelErr(got.V[d], want.V[d]); e > 2e-4 {
				t.Errorf("flux=%v: v[%d] RHS rel err %g", flux, d, e)
			}
		}
	}
}

// A full five-stage PIM time-step must track the reference integrator.
func TestFunctionalAcousticFullStepsMatchReference(t *testing.T) {
	m := mesh.New(1, 4, true)
	q, qPim := acousticStates(t, m)

	ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, fnMat), dg.RiemannFlux)
	it := dg.NewAcousticIntegrator(ref)
	dt := ref.MaxStableDt(0.3)

	fa := functionalForTest(t, m, dt, WithAcousticMaterial(fnMat), WithFlux(dg.RiemannFlux)).Acoustic()
	fa.Load(qPim)

	const steps = 3
	it.Run(q, 0, dt, steps)
	fa.Run(steps)
	got := dg.NewAcousticState(m)
	fa.ReadState(got)

	if e := maxRelErr(got.P, q.P); e > 5e-3 {
		t.Errorf("pressure after %d steps: rel err %g", steps, e)
	}
	for d := 0; d < 3; d++ {
		if e := maxRelErr(got.V[d], q.V[d]); e > 5e-3 {
			t.Errorf("v[%d] after %d steps: rel err %g", d, steps, e)
		}
	}
	// The functional run also produced meaningful cost accounting.
	if fa.Engine.TotalTime() <= 0 || fa.Engine.TotalEnergy <= 0 {
		t.Error("functional run must accumulate time and energy")
	}
	if fa.Engine.InstrCount == 0 || fa.Engine.TransferCt == 0 {
		t.Error("functional run must count instructions and transfers")
	}
}

// Technique sanity: the compiled one-block programs have the kernel-size
// ordering the paper describes (Flux has the fewest arithmetic ops but
// needs transfers; Volume dominates instruction count).
func TestCompiledProgramShapes(t *testing.T) {
	m := mesh.New(1, 4, true)
	c := NewCompiler(Plan{Layout: AcousticOneBlock}, m.Np, dg.RiemannFlux)
	vol := len(c.VolumeOneBlock())
	flux := len(c.FluxOneBlock(0))
	integ := len(c.IntegrationOneBlock(0))
	if vol <= flux || vol <= integ {
		t.Errorf("Volume (%d instrs) should be the largest kernel (flux %d, integ %d)", vol, flux, integ)
	}
	// Riemann flux is strictly larger than central flux.
	central := NewCompiler(Plan{Layout: AcousticOneBlock}, m.Np, dg.CentralFlux)
	if n := len(central.FluxOneBlock(0)); n >= flux {
		t.Errorf("central flux (%d) should be smaller than Riemann (%d)", n, flux)
	}
}
