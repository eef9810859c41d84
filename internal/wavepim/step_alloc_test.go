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

// A replayed transfer phase allocates nothing: with one worker and no
// sink, an elastic step's transfer phases copy words and charge their
// stored price without touching the heap.
func TestReplayedTransferPhaseAllocationFree(t *testing.T) {
	m := mesh.New(1, 8, true)
	s, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(m), WithDt(1e-3), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := elasticStates(m)
	s.Elastic().Load(q)
	s.Step()
	sys, e := s.sys, s.Engine()
	replayed := 0
	for i, p := range sys.plan.rhs {
		if p.progs != nil {
			continue
		}
		replayed++
		pr := sys.rhsPrices[i].xfer
		if n := testing.AllocsPerRun(5, func() { e.ExecTransfersPriced(p.name, p.transfers, pr, sys.blocks) }); n != 0 {
			t.Errorf("replaying %s (%d transfers) allocates %.1f times", p.name, len(p.transfers), n)
		}
	}
	if replayed == 0 {
		t.Fatal("the elastic plan has no transfer phase")
	}
}
