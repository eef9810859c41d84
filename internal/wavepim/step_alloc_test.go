package wavepim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/nor"
)

// A steady-state functional Step allocates a few times per phase for the
// block phases' bookkeeping and nothing per transfer or per instruction:
// the elastic-Riemann four-block layout moves hundreds of thousands of
// words per step, so one allocation per transfer would blow the bound. On
// the NOR slab, an acoustic step's block phases replay chunks cut when
// they were priced, and its worker-owned NOR units are warm, so the same
// bound holds there, and for each block phase replayed alone.
func TestStepAllocationsPerPhase(t *testing.T) {
	m := mesh.New(1, 8, true)
	elastic, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(m), WithDt(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	q, _ := elasticStates(m)
	elastic.Elastic().Load(q)
	for _, c := range []struct {
		name string
		s    *Session
	}{
		{"elastic-riemann", elastic},
		{"acoustic NOR slab", sessionForTest(t, WithNORSlab(nor.DefaultSlabWords))},
	} {
		s := c.s
		s.Step()
		s.Step()
		phases := len(s.Engine().Timeline) // a step keeps only its own phases
		allocs := testing.AllocsPerRun(2, s.Step)
		t.Logf("%s: %d phases, %.0f allocations per step", c.name, phases, allocs)
		if limit := float64(5 * phases); allocs >= limit {
			t.Errorf("%s: a step allocates %.0f times, want < %.0f (5 per phase over %d phases)", c.name, allocs, limit, phases)
		}
		if s.Engine().SlabWords == 0 {
			continue
		}
		sys, e := s.sys, s.Engine()
		for i, p := range sys.plan.rhs {
			if p.progs == nil {
				continue
			}
			pr := &sys.rhsPrices[i].blocks
			if n := testing.AllocsPerRun(2, func() { e.ExecBlocksPriced(p.name, p.progs, pr) }); n >= 5 {
				t.Errorf("%s: replaying %s allocates %.1f times, want < 5", c.name, p.name, n)
			}
		}
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
		pr := &sys.rhsPrices[i].xfer
		if n := testing.AllocsPerRun(5, func() { e.ExecTransfersPriced(p.name, p.transfers, p.groups, pr) }); n != 0 {
			t.Errorf("replaying %s (%d transfers) allocates %.1f times", p.name, len(p.transfers), n)
		}
	}
	if replayed == 0 {
		t.Fatal("the elastic plan has no transfer phase")
	}
}

// A session keeps only the current step's phases: over 50 steps the
// engine's Timeline holds the same number of phases in the same backing
// array, while TimelineDigest still equals an FNV-1a hash of every phase
// committed since the session was built, hashed here from the phases
// loading and each step leave on the Timeline.
func TestTimelineBoundedPerStep(t *testing.T) {
	s := sessionForTest(t)
	e := s.Engine()
	h := fnv.New64a()
	hashTimeline := func() {
		var buf []byte
		for _, p := range e.Timeline {
			buf = append(append(buf, p.Name...), 0)
			buf = append(append(buf, p.Kind...), 0)
			for _, v := range []float64{p.Start, p.Dur, p.EnergyJ} {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		h.Write(buf)
	}
	hashTimeline()
	var phases, capacity int
	for i := 0; i < 50; i++ {
		s.Step()
		hashTimeline()
		switch {
		case i == 1:
			phases, capacity = len(e.Timeline), cap(e.Timeline)
		case i > 1 && (len(e.Timeline) != phases || cap(e.Timeline) != capacity):
			t.Fatalf("step %d leaves %d phases (capacity %d), want %d (capacity %d)",
				i, len(e.Timeline), cap(e.Timeline), phases, capacity)
		}
	}
	if got, want := e.TimelineDigest(), h.Sum64(); got != want {
		t.Errorf("TimelineDigest %016x, want %016x, the hash of every committed phase", got, want)
	}
	if n, want := e.NameTotal(e.Timeline[0].Name).Count, int64(50*dg.NumStages); n < want {
		t.Errorf("%d %q phases committed over 50 steps, want at least %d", n, e.Timeline[0].Name, want)
	}
}
