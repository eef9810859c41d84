package dg

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
)

// pinDigest is an FNV-1a hash over the Float64bits of every value of
// every variable array, followed by the returned time.
func pinDigest(t float64, xs [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, x := range xs {
		for _, v := range x {
			put(v)
		}
	}
	put(t)
	return h.Sum64()
}

// TestIntegratorsPinned pins the LSRK integrators' final states and times
// bit for bit: every equation under both fluxes, an acoustic run with a
// point source started at t0 > 0, and the guarded runs (a guard that never
// trips leaves the run as it was: elastic-guarded pins elastic-central's
// digest). The time step is dyadic and below every run's stable step, so
// step times sum exactly.
func TestIntegratorsPinned(t *testing.T) {
	const (
		steps = 7
		dt    = 1.0 / 128
		t0    = 0.25
	)
	m := mesh.New(1, 4, true)
	type stable interface{ MaxStableDt(cfl float64) float64 }
	checkDt := func(s stable) {
		if max := s.MaxStableDt(0.4); dt > max {
			t.Fatalf("pinned dt %g above stable dt %g", dt, max)
		}
	}
	acoustic := func(flux FluxType) (*AcousticSolver, *AcousticState) {
		s := NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, waterLike), flux)
		checkDt(s)
		q := NewAcousticState(m)
		PlaneWaveX(m, waterLike, 1, q)
		return s, q
	}
	elastic := func(flux FluxType) (*ElasticSolver, *ElasticState) {
		s := NewElasticSolver(m, material.UniformElastic(m.NumElem, rockLike), flux)
		checkDt(s)
		q := NewElasticState(m)
		PlaneWavePX(m, rockLike, 1, q)
		return s, q
	}
	maxwell := func(flux FluxType) (*MaxwellSolver, *MaxwellState) {
		s := NewMaxwellSolver(m, material.Dielectric{Eps: 2.25, Mu: 1}, flux)
		checkDt(s)
		q := NewMaxwellState(m)
		PlaneWaveEM(m, s.Mat, 1, q)
		return s, q
	}
	sourced := func(flux FluxType) (float64, [][]float64) {
		s, q := acoustic(flux)
		it := NewAcousticIntegrator(s)
		src := NewPointSource(m, 0.3, 0.6, 0.4, 2)
		it.Source = func(tm float64, rhs *AcousticState) { src.AddTo(tm, rhs.P, m.NodesPerEl) }
		return it.Run(q, t0, dt, steps), q.Slices()
	}
	plainElastic := func(flux FluxType) (float64, [][]float64) {
		s, q := elastic(flux)
		return NewElasticIntegrator(s).Run(q, 0, dt, steps), q.Slices()
	}
	plainMaxwell := func(flux FluxType) (float64, [][]float64) {
		s, q := maxwell(flux)
		return NewMaxwellIntegrator(s).Run(q, 0, dt, steps), q.Slices()
	}
	for _, c := range []struct {
		name string
		run  func() (float64, [][]float64)
		want uint64
	}{
		{"acoustic-central-source", func() (float64, [][]float64) { return sourced(CentralFlux) }, 0xdccb46a9dc6d6579},
		{"acoustic-riemann-source", func() (float64, [][]float64) { return sourced(RiemannFlux) }, 0x1699735403ff625d},
		{"elastic-central", func() (float64, [][]float64) { return plainElastic(CentralFlux) }, 0x1fcb854009d8ed24},
		{"elastic-riemann", func() (float64, [][]float64) { return plainElastic(RiemannFlux) }, 0x757ee817d9859e3c},
		{"maxwell-central", func() (float64, [][]float64) { return plainMaxwell(CentralFlux) }, 0x44eb434083843994},
		{"maxwell-riemann", func() (float64, [][]float64) { return plainMaxwell(RiemannFlux) }, 0x4d1276f9ffbfce9c},
		{"acoustic-guarded", func() (float64, [][]float64) {
			s, q := acoustic(RiemannFlux)
			tEnd, err := NewAcousticIntegrator(s).RunGuarded(q, t0, dt, steps, 2, 1e3)
			if err != nil {
				t.Fatal(err)
			}
			return tEnd, q.Slices()
		}, 0xc97984c1045aae5f},
		{"elastic-guarded", func() (float64, [][]float64) {
			s, q := elastic(CentralFlux)
			tEnd, err := NewElasticIntegrator(s).RunGuarded(q, 0, dt, steps, 3, 1e3)
			if err != nil {
				t.Fatal(err)
			}
			return tEnd, q.Slices()
		}, 0x1fcb854009d8ed24},
	} {
		if got := pinDigest(c.run()); got != c.want {
			t.Errorf("%s: digest %#016x, want %#016x", c.name, got, c.want)
		}
	}
}
