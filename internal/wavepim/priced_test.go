package wavepim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/sim"
)

// referenceStep runs one time-step of s's plan the reference way, batch
// by batch on a batched system: every block phase priced afresh, and every transfer batch through ExecTransfers'
// run-ledger pricing and row-by-row copies in batch order. A system's
// Step, which replays stored prices and copies column runs, must
// reproduce it.
func referenceStep(s *system) {
	e := s.Engine
	run := func(p phase, first int) {
		switch {
		case p.progs != nil:
			var fresh sim.BlocksPrice
			e.Sequence(e.ExecBlocksPriced(p.name, p.progs, &fresh))
		case len(p.transfers) > 0:
			ph := e.ExecTransfers(p.name, p.transfers)
			for _, tr := range p.transfers {
				e.Chip.Block(tr.DstBlock).CopyWords(tr.DstRow, tr.DstOff, e.Chip.Block(tr.SrcBlock), tr.SrcRow, tr.SrcOff, tr.Words)
			}
			e.Sequence(ph)
		}
		s.copyFromHost(p, first)
	}
	stage := func(pp *pricedPlan, st, first int) {
		for _, p := range pp.plan.rhs {
			run(p, first)
		}
		run(pp.plan.integ[st], first)
	}
	for st := range s.plan.integ {
		if s.batches == nil {
			stage(&s.pricedPlan, st, 0)
			continue
		}
		for _, b := range s.batches {
			s.moveBatch(b, false)
			stage(b.pricedPlan, st, b.first)
			s.moveBatch(b, true)
		}
		s.img, s.next = s.next, s.img
	}
}

// pricedLayouts are the functional layouts, each with a builder for a
// loaded system on a fabric.
var pricedLayouts = []struct {
	name  string
	eq    opcount.Equation
	flux  dg.FluxType
	plan  Plan
	sched scheduleBuilder
}{
	{"acoustic-central", opcount.Acoustic, dg.CentralFlux, Plan{Tech: Naive, Layout: AcousticOneBlock, SlotsPerElem: 1}, acousticSchedule},
	{"acoustic-riemann", opcount.Acoustic, dg.RiemannFlux, Plan{Tech: Naive, Layout: AcousticOneBlock, SlotsPerElem: 1}, acousticSchedule},
	{"acoustic-expanded", opcount.Acoustic, dg.RiemannFlux, Plan{Tech: ExpandParallel, Layout: AcousticFourBlock, SlotsPerElem: 4}, expandedSchedule},
	{"elastic-central", opcount.ElasticCentral, dg.CentralFlux, Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}, elasticSchedule},
	{"elastic-riemann", opcount.ElasticRiemann, dg.RiemannFlux, Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}, elasticSchedule},
	{"maxwell", opcount.Maxwell, FluxFor(opcount.Maxwell), Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}, maxwellSchedule},
}

// loadedSystem builds layout i's system on the given fabric with the given
// worker count and sink, and loads its initial state.
func loadedSystem(t *testing.T, i int, m *mesh.Mesh, topo string, workers int, sink *obs.Sink) *system {
	t.Helper()
	l := pricedLayouts[i]
	cfg, err := chipFor(m.NumElem * l.plan.SlotsPerElem)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Interconnect = chip.InterconnectKind(topo)
	s, err := newSystem(cfg, m, l.flux, 1e-3, l.plan, nil, l.sched)
	if err != nil {
		t.Fatal(err)
	}
	s.Engine.Workers = workers
	s.Engine.Obs = sink
	switch l.eq {
	case opcount.Acoustic:
		q := dg.NewAcousticState(m)
		dg.PlaneWaveX(m, fnMat, 1, q)
		(&FunctionalAcoustic{system: s, Mat: fnMat}).Load(q)
	case opcount.Maxwell:
		q, _ := maxwellStates(m)
		(&FunctionalMaxwell{system: s, Mat: emMat}).Load(q)
	default:
		q, _ := elasticStates(m)
		(&FunctionalElastic{system: s, Mat: elMat}).Load(q)
	}
	return s
}

// A system's Step replays phases priced once, on their first replay; it
// must leave exactly what referenceStep leaves: timeline, state, counts,
// backpressure and sink values bit for bit, on every layout and fabric,
// with and without a sink, serial and on the worker pool. Only the
// per-switch busy totals may differ in their last bits: the replay adds
// each phase's busy seconds as one delta, where ExecTransfers adds every
// transfer's occupancy to the run total one by one. On the bus, whose one switch takes every transfer,
// the two orders drift apart by about 1e-12 relative per step (9.6e-13
// after one step here, 2.2e-12 after two), so the comparison runs one
// step.
func TestPricedStepMatchesReference(t *testing.T) {
	m := mesh.New(1, 4, true)
	for i, l := range pricedLayouts {
		for _, topo := range intercon.Names() {
			for _, workers := range []int{1, 2} {
				for _, withSink := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/sink=%v", l.name, topo, workers, withSink)
					var sinks [2]*obs.Sink
					if withSink {
						sinks = [2]*obs.Sink{obs.NewSink(), obs.NewSink()}
					}
					priced := loadedSystem(t, i, m, topo, workers, sinks[0])
					plain := loadedSystem(t, i, m, topo, workers, sinks[1])
					priced.Step()
					referenceStep(plain)
					comparePricedRuns(t, name, priced, plain, sinks)
				}
			}
		}
	}
}

// closeRel reports whether a and b agree within the relative tolerance rel.
func closeRel(a, b, rel float64) bool {
	return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func comparePricedRuns(t *testing.T, name string, priced, plain *system, sinks [2]*obs.Sink) {
	t.Helper()
	pe, ue := priced.Engine, plain.Engine
	if a, b := pe.TimelineDigest(), ue.TimelineDigest(); a != b {
		t.Errorf("%s: timeline digest %#x, reference %#x", name, a, b)
	}
	state := func(s *system) uint64 {
		vars := make([][]float64, len(s.plan.vars))
		for v := range vars {
			vars[v] = make([]float64, s.Mesh.NumElem*s.Mesh.NodesPerEl)
		}
		s.readVars(vars)
		return stateHash(vars)
	}
	if a, b := state(priced), state(plain); a != b {
		t.Errorf("%s: state hash %#x, reference %#x", name, a, b)
	}
	if pe.InstrCount != ue.InstrCount || pe.TransferCt != ue.TransferCt {
		t.Errorf("%s: %d instructions and %d transfers, reference %d and %d",
			name, pe.InstrCount, pe.TransferCt, ue.InstrCount, ue.TransferCt)
	}
	pr, ur := pe.InterconReport(), ue.InterconReport()
	if pr.Backpressured != ur.Backpressured || pr.BackpressureSec != ur.BackpressureSec {
		t.Errorf("%s: backpressure %d/%v s, reference %d/%v s",
			name, pr.Backpressured, pr.BackpressureSec, ur.Backpressured, ur.BackpressureSec)
	}
	busyClose := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Errorf("%s: %s switch-busy has %d switches, reference %d", name, what, len(a), len(b))
			return
		}
		for i := range a {
			if !closeRel(a[i], b[i], 1e-12) {
				t.Errorf("%s: %s switch %d busy %v s, reference %v s", name, what, i, a[i], b[i])
			}
		}
	}
	busyClose("tile", pr.TileSwitchBusy, ur.TileSwitchBusy)
	busyClose("chip", pr.ChipSwitchBusy, ur.ChipSwitchBusy)
	if sinks[0] != nil {
		a, b := sinks[0].Reg.Snapshot(), sinks[1].Reg.Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sink snapshots differ:\npriced    %v\nreference %v", name, a, b)
		}
	}
}

// A batched system replays its transfer phases as column runs; the same
// system's referenceStep copies row by row. One step of each must leave
// the same state and timeline bit for bit: elastic-Riemann folded through
// a three-tile chip in ragged batches, serial and on the worker pool.
func TestBatchedColumnRunsMatchRowCopies(t *testing.T) {
	m := mesh.New(3, 4, true)
	for _, workers := range []int{1, 2} {
		var states [2]uint64
		var engines [2]*sim.Engine
		for i := range states {
			s, err := NewSession(WithEquation(opcount.ElasticRiemann), WithMesh(m), WithDt(1e-3),
				WithChip(tilesChip(3)), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if s.sys.batches == nil {
				t.Fatal("the three-tile chip holds the mesh")
			}
			runs := 0
			for _, p := range s.sys.plan.rhs {
				if p.groups != nil {
					runs++
				}
			}
			if runs == 0 {
				t.Fatal("no transfer phase of the batch plan replays column runs")
			}
			q, _ := elasticStates(m)
			s.Elastic().Load(q)
			if i == 0 {
				s.Step()
			} else {
				referenceStep(s.sys)
			}
			s.Elastic().ReadState(q)
			states[i], engines[i] = stateHash(q.Slices()), s.Engine()
		}
		if states[0] != states[1] {
			t.Errorf("workers=%d: state hash %#x, row by row %#x", workers, states[0], states[1])
		}
		if a, b := engines[0].TimelineDigest(), engines[1].TimelineDigest(); a != b {
			t.Errorf("workers=%d: timeline digest %#x, row by row %#x", workers, a, b)
		}
	}
}
