package wavepim

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/sim"
)

// stateHash is the FNV-1a hash of every value's float64 bits, variable
// by variable in Slices() order.
func stateHash(vars [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vars {
		for _, x := range v {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// TestFunctionalTimelinePinned pins, for every functional layout, the
// engine's timeline digest (phase names, kinds, durations, energies) and
// the exact final state after two time-steps on mesh.New(1, 4, true). The
// literals were recorded once and must never be edited: any change to
// phase order, phase names, transfer schedules, block programs, or the
// checkpoint charge shows up here.
func TestFunctionalTimelinePinned(t *testing.T) {
	const steps = 2
	recovery := WithRecovery(fault.Recovery{CheckpointEvery: 1, MaxRollbacks: 2, BlowupFactor: 1e6})

	// session runs a Session for steps time-steps and returns its engine
	// and the hash of its final state.
	session := func(t *testing.T, eq opcount.Equation, opts ...Option) (*sim.Engine, uint64) {
		t.Helper()
		m := mesh.New(1, 4, true)
		s, err := NewSession(append([]Option{WithEquation(eq), WithMesh(m), WithDt(1e-3)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		var read func() [][]float64
		switch eq {
		case opcount.Acoustic:
			q := dg.NewAcousticState(m)
			dg.PlaneWaveX(m, fnMat, 1, q)
			s.Acoustic().Load(q)
			read = func() [][]float64 { s.Acoustic().ReadState(q); return q.Slices() }
		case opcount.Maxwell:
			q, _ := maxwellStates(m)
			s.Maxwell().Load(q)
			read = func() [][]float64 { s.Maxwell().ReadState(q); return q.Slices() }
		default:
			q, _ := elasticStates(m)
			s.Elastic().Load(q)
			read = func() [][]float64 { s.Elastic().ReadState(q); return q.Slices() }
		}
		if err := s.Run(context.Background(), steps); err != nil {
			t.Fatal(err)
		}
		return s.Engine(), stateHash(read())
	}

	cases := []struct {
		name           string
		run            func(t *testing.T) (*sim.Engine, uint64)
		digest, values uint64
	}{
		{"acoustic-central", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.Acoustic, WithFlux(dg.CentralFlux))
		}, 0xdcc5135d39ee82, 0xdb8cd614c86b7a65},
		{"acoustic-riemann", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.Acoustic, WithFlux(dg.RiemannFlux))
		}, 0xca9b14fada9852be, 0xd5f7d4df524e3d65},
		{"elastic-central", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.ElasticCentral)
		}, 0x86ebed658093a960, 0x63984e7060aede15},
		{"elastic-riemann", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.ElasticRiemann)
		}, 0xbd7254d20882f393, 0xec4f3f72c8082c22},
		{"maxwell", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.Maxwell)
		}, 0xca97ca6a9abf4b6f, 0xdf98e9e402656a13},
		{"acoustic-expanded", func(t *testing.T) (*sim.Engine, uint64) {
			m := mesh.New(1, 4, true)
			fe, err := NewFunctionalAcousticExpanded(m, fnMat, dg.RiemannFlux, 1e-3)
			if err != nil {
				t.Fatal(err)
			}
			q := dg.NewAcousticState(m)
			dg.PlaneWaveX(m, fnMat, 1, q)
			fe.Load(q)
			fe.Run(steps)
			fe.ReadState(q)
			return fe.Engine, stateHash(q.Slices())
		}, 0x29b2dce4a7bd947e, 0xd5f7d4df524e3d65},
		{"acoustic-rhs-once", func(t *testing.T) (*sim.Engine, uint64) {
			m := mesh.New(1, 4, true)
			s, err := NewSession(WithMesh(m), WithDt(1e-3))
			if err != nil {
				t.Fatal(err)
			}
			q := dg.NewAcousticState(m)
			dg.PlaneWaveX(m, fnMat, 1, q)
			s.Acoustic().Load(q)
			s.Acoustic().RHSOnce()
			s.Acoustic().ReadRHS(q)
			return s.Engine(), stateHash(q.Slices())
		}, 0xef763240c09a338f, 0x62bb9ddd4546f525},
		{"acoustic-recovery", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.Acoustic, recovery)
		}, 0xf72d3a74e878aa47, 0xd5f7d4df524e3d65},
		{"elastic-recovery", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.ElasticRiemann, recovery)
		}, 0x8e316184a62c1fc, 0xec4f3f72c8082c22},
		{"maxwell-recovery", func(t *testing.T) (*sim.Engine, uint64) {
			return session(t, opcount.Maxwell, recovery)
		}, 0x6aa3b3457388c325, 0xdf98e9e402656a13},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, values := tc.run(t)
			if got := eng.TimelineDigest(); got != tc.digest {
				t.Errorf("TimelineDigest = %#x, want %#x", got, tc.digest)
			}
			if values != tc.values {
				t.Errorf("state hash = %#x, want %#x", values, tc.values)
			}
		})
	}
}
