package wavepim

import (
	"fmt"
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

// unpricedStep runs one time-step of s's plan through plain ExecTransfers
// and ExecBlocks, pricing every phase as it goes: the reference a system's
// priced Step must reproduce.
func unpricedStep(s *system) {
	e := s.Engine
	run := func(p phase) {
		if p.progs != nil {
			e.Sequence(e.ExecBlocks(p.name, p.progs))
			return
		}
		e.Sequence(e.ExecTransfers(p.name, p.transfers))
	}
	for st := range s.plan.integ {
		for _, p := range s.plan.rhs {
			run(p)
		}
		run(s.plan.integ[st])
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

// A system's Step replays phases priced once at construction; it must
// leave exactly what running the same plan phases through ExecTransfers
// and ExecBlocks leaves: timeline, state, counts, backpressure and sink
// values bit for bit, on every layout and fabric, with and without a
// sink, serial and on the worker pool. Only the per-switch busy totals
// may differ in their last bits: the replay adds each phase's busy seconds
// as one delta, where ExecTransfers adds every transfer's occupancy to the
// run total one by one. On the bus, whose one switch takes every transfer,
// the two orders drift apart by about 1e-12 relative per step (9.6e-13
// after one step here, 2.2e-12 after two), so the comparison runs one
// step.
func TestPricedStepMatchesUnpriced(t *testing.T) {
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
					unpricedStep(plain)
					comparePricedRuns(t, name, priced, plain, sinks)
				}
			}
		}
	}
}

func comparePricedRuns(t *testing.T, name string, priced, plain *system, sinks [2]*obs.Sink) {
	t.Helper()
	pe, ue := priced.Engine, plain.Engine
	if a, b := pe.TimelineDigest(), ue.TimelineDigest(); a != b {
		t.Errorf("%s: timeline digest %#x, un-priced %#x", name, a, b)
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
		t.Errorf("%s: state hash %#x, un-priced %#x", name, a, b)
	}
	if pe.InstrCount != ue.InstrCount || pe.TransferCt != ue.TransferCt {
		t.Errorf("%s: %d instructions and %d transfers, un-priced %d and %d",
			name, pe.InstrCount, pe.TransferCt, ue.InstrCount, ue.TransferCt)
	}
	pr, ur := pe.InterconReport(), ue.InterconReport()
	if pr.Backpressured != ur.Backpressured || pr.BackpressureSec != ur.BackpressureSec {
		t.Errorf("%s: backpressure %d/%v s, un-priced %d/%v s",
			name, pr.Backpressured, pr.BackpressureSec, ur.Backpressured, ur.BackpressureSec)
	}
	busyClose := func(what string, a, b []float64) {
		if len(a) != len(b) {
			t.Errorf("%s: %s switch-busy has %d switches, un-priced %d", name, what, len(a), len(b))
			return
		}
		for i := range a {
			if !sim.CheckClose(a[i], b[i], 1e-12) {
				t.Errorf("%s: %s switch %d busy %v s, un-priced %v s", name, what, i, a[i], b[i])
			}
		}
	}
	busyClose("tile", pr.TileSwitchBusy, ur.TileSwitchBusy)
	busyClose("chip", pr.ChipSwitchBusy, ur.ChipSwitchBusy)
	if sinks[0] != nil {
		a, b := sinks[0].Reg.Snapshot(), sinks[1].Reg.Snapshot()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: sink snapshots differ:\npriced   %v\nunpriced %v", name, a, b)
		}
	}
}

// A batched system replays its transfer phases as column runs; the same
// system with its transfer prices dropped runs them through ExecTransfers,
// which copies row by row. One step of each must leave the same state and
// timeline bit for bit: elastic-Riemann folded through a three-tile chip
// in ragged batches, serial and on the worker pool.
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
			if i == 1 {
				for _, b := range s.sys.batches {
					for j := range b.rhsPrices {
						b.rhsPrices[j].xfer = nil
					}
				}
			}
			q, _ := elasticStates(m)
			s.Elastic().Load(q)
			s.Step()
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
