package wavepim

import (
	"context"
	"errors"
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/intercon"
)

// TestWithTopologySelection: every constructible fabric is selectable
// through the unified session constructor, and the session reports the
// normalized name back.
func TestWithTopologySelection(t *testing.T) {
	for _, name := range intercon.Names() {
		s := sessionForTest(t, WithTopology(name))
		if got := s.Topology(); got != name {
			t.Errorf("WithTopology(%q): session reports %q", name, got)
		}
	}
	// The default (no option) is the paper's H-tree.
	if got := sessionForTest(t).Topology(); got != "htree" {
		t.Errorf("default topology = %q, want htree", got)
	}
}

// TestWithTopologyUnknown: a bad name fails session construction eagerly
// with the typed error, matchable at both the session and intercon layer.
func TestWithTopologyUnknown(t *testing.T) {
	m := mesh.New(1, 4, true)
	_, err := NewSession(WithMesh(m), WithDt(1e-3), WithTopology("hypercube"))
	if err == nil {
		t.Fatal("NewSession accepted an unknown topology")
	}
	if !errors.Is(err, ErrUnknownTopology) {
		t.Errorf("error %v does not match wavepim.ErrUnknownTopology", err)
	}
	if !errors.Is(err, intercon.ErrUnknownTopology) {
		t.Errorf("error %v does not match intercon.ErrUnknownTopology", err)
	}
}

// TestFunctionalAnswerIdenticalAcrossTopologies is the cross-topology
// conservation differential: the interconnect changes when data moves,
// never what arrives — so the functional answer bits must be identical on
// every fabric, while the simulated clock may differ.
func TestFunctionalAnswerIdenticalAcrossTopologies(t *testing.T) {
	m := mesh.New(1, 4, true)
	var base []uint64
	for _, name := range intercon.Names() {
		s := sessionForTest(t, WithTopology(name))
		if err := s.Run(context.Background(), 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q := dg.NewAcousticState(m)
		s.Acoustic().ReadState(q)
		bits := make([]uint64, len(q.P))
		for i, p := range q.P {
			bits[i] = math.Float64bits(p)
		}
		if base == nil {
			base = bits // htree sweeps first
			continue
		}
		for i := range bits {
			if bits[i] != base[i] {
				t.Fatalf("%s: P[%d] bits %016x differ from htree %016x",
					name, i, bits[i], base[i])
			}
		}
	}
}
