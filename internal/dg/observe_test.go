package dg

import (
	"strings"
	"testing"

	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
)

// An integrator whose solver carries a sink records every RHS evaluation
// (NumStages per LSRK step) under dg.rhs_calls.<eq> and dg.rhs_seconds.<eq>,
// and registers no other dg.* instrument. wavesim -metrics reports these.
func TestRHSObservedPerStage(t *testing.T) {
	const steps = 3
	m := mesh.New(1, 4, true)
	for _, c := range []struct {
		eq  string
		run func(sink *obs.Sink)
	}{
		{"acoustic", func(sink *obs.Sink) {
			s := NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, waterLike), RiemannFlux)
			s.Obs = sink
			q := NewAcousticState(m)
			PlaneWaveX(m, waterLike, 1, q)
			NewAcousticIntegrator(s).Run(q, 0, s.MaxStableDt(0.4), steps)
		}},
		{"elastic", func(sink *obs.Sink) {
			s := NewElasticSolver(m, material.UniformElastic(m.NumElem, rockLike), RiemannFlux)
			s.Obs = sink
			q := NewElasticState(m)
			PlaneWavePX(m, rockLike, 1, q)
			NewElasticIntegrator(s).Run(q, 0, s.MaxStableDt(0.4), steps)
		}},
		{"maxwell", func(sink *obs.Sink) {
			s := NewMaxwellSolver(m, material.Vacuum, RiemannFlux)
			s.Obs = sink
			q := NewMaxwellState(m)
			PlaneWaveEM(m, material.Vacuum, 1, q)
			NewMaxwellIntegrator(s).Run(q, 0, s.MaxStableDt(0.4), steps)
		}},
	} {
		sink := obs.NewSink()
		c.run(sink)
		snap := sink.Reg.Snapshot()
		calls, seconds := "dg.rhs_calls."+c.eq, "dg.rhs_seconds."+c.eq
		if got := snap.Counters[calls]; got != NumStages*steps {
			t.Errorf("%s = %d, want %d", calls, got, NumStages*steps)
		}
		if got := snap.Histograms[seconds].Count; got != NumStages*steps {
			t.Errorf("%s has %d observations, want %d", seconds, got, NumStages*steps)
		}
		for name := range snap.Counters {
			if strings.HasPrefix(name, "dg.") && name != calls {
				t.Errorf("%s: unexpected counter %s", c.eq, name)
			}
		}
		for name := range snap.Histograms {
			if strings.HasPrefix(name, "dg.") && name != seconds {
				t.Errorf("%s: unexpected histogram %s", c.eq, name)
			}
		}
		for name := range snap.Gauges {
			if strings.HasPrefix(name, "dg.") {
				t.Errorf("%s: unexpected gauge %s", c.eq, name)
			}
		}
	}
}
