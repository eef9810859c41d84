package wavepim

import (
	"testing"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
)

// A steady-state functional Step allocates a few times per phase for the
// block phases' bookkeeping and nothing per transfer or per instruction:
// the elastic-Riemann four-block layout moves hundreds of thousands of
// words per step, so one allocation per transfer would blow the bound.
func TestStepAllocationsPerPhase(t *testing.T) {
	m := mesh.New(1, 8, true)
	s, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(m), WithDt(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := elasticStates(m)
	s.Elastic().Load(q)
	s.Step()
	e := s.Engine()
	before := len(e.Timeline)
	s.Step()
	phases := len(e.Timeline) - before
	allocs := testing.AllocsPerRun(2, s.Step)
	t.Logf("%d phases, %.0f allocations per step", phases, allocs)
	if limit := float64(5 * phases); allocs >= limit {
		t.Errorf("a step allocates %.0f times, want < %.0f (5 per phase over %d phases)", allocs, limit, phases)
	}
}
