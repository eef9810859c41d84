package dg

import (
	"math"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

func TestSpongeProfile(t *testing.T) {
	m := mesh.New(1, 5, false)
	sp := NewSponge(m, []mesh.Face{mesh.FaceZPlus}, 0.25, 40)
	// Interior nodes (z < 0.75) undamped; damping grows toward z = 1.
	nn := m.NodesPerEl
	var atEdge, interior float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < nn; n++ {
			_, _, z := m.NodePosition(e, n)
			s := sp.Sigma[e*nn+n]
			if z < 0.74 && s != 0 {
				t.Fatalf("interior node z=%.3f damped: %g", z, s)
			}
			if z > 0.99 && s > atEdge {
				atEdge = s
			}
			if s > 0 && z < 0.80 {
				interior = s
			}
		}
	}
	if atEdge < 30 {
		t.Errorf("edge damping %g, want near the peak 40", atEdge)
	}
	if interior > 5 {
		t.Errorf("layer-entry damping %g should be small (quadratic ramp)", interior)
	}
	if sp.MaxSigma() != atEdge {
		t.Error("MaxSigma mismatch")
	}
}

// The sponge absorbs an outgoing pulse: with the layer active, far less
// energy survives a boundary interaction than with a bare reflecting
// wall.
func TestSpongeAbsorbsOutgoingWave(t *testing.T) {
	mat := material.Acoustic{Kappa: 1, Rho: 1} // c = 1
	run := func(withSponge bool) float64 {
		m := mesh.New(1, 6, false)
		// Central flux: energy-conserving, so the sponge is the only sink
		// and the comparison is clean.
		s := NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), CentralFlux)
		s.Boundary = RigidWall
		var sp *Sponge
		if withSponge {
			all := []mesh.Face{mesh.FaceXMinus, mesh.FaceXPlus, mesh.FaceYMinus,
				mesh.FaceYPlus, mesh.FaceZMinus, mesh.FaceZPlus}
			sp = NewSponge(m, all, 0.3, 60)
		}
		q := NewAcousticState(m)
		nn := m.NodesPerEl
		for e := 0; e < m.NumElem; e++ {
			for n := 0; n < nn; n++ {
				x, y, z := m.NodePosition(e, n)
				r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
				p := math.Exp(-r2 / 0.05)
				q.P[e*nn+n] = p
				q.V[0][e*nn+n] = p // rightward-biased pulse
			}
		}
		it := NewAcousticIntegrator(s)
		if sp != nil {
			// Damping rides along with the source hook, inside each stage.
			it.Source = func(_ float64, rhs *AcousticState) { sp.Apply(q, rhs) }
		}
		dt := s.MaxStableDt(0.2)
		steps := int(1.2 / mat.SoundSpeed() / dt) // time to hit and interact with the wall
		it.Run(q, 0, dt, steps)
		return s.Energy(q)
	}
	reflected := run(false)
	absorbed := run(true)
	if absorbed > reflected/5 {
		t.Errorf("sponge left %.3g of the energy; reflecting wall leaves %.3g (want <20%%)", absorbed, reflected)
	}
	if absorbed <= 0 {
		t.Error("energy must stay positive")
	}
}

func TestReflectionEstimateMonotone(t *testing.T) {
	sp := &Sponge{}
	r1 := sp.ReflectionEstimate(0.2, 10, 1)
	r2 := sp.ReflectionEstimate(0.2, 40, 1)
	if !(r2 < r1 && r1 < 1) {
		t.Errorf("reflection estimate not monotone in strength: %g %g", r1, r2)
	}
}
