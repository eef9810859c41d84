package wavepim

import (
	"context"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/obs"
	"wavepim/internal/pim/chip"
)

func quickOpts() Options {
	o := DefaultOptions()
	o.TimeSteps = 64
	return o
}

func mustRun(t *testing.T, b opcount.Benchmark, cfg chip.Config, opt Options) Result {
	t.Helper()
	r, err := Run(b, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Core runner invariants across the full benchmark grid.
func TestRunInvariants(t *testing.T) {
	for _, b := range opcount.AllBenchmarks() {
		if b.Refinement > 4 {
			continue // keep the test fast; level 5 covered by experiments tests
		}
		for _, cfg := range chip.AllConfigs() {
			r := mustRun(t, b, cfg, quickOpts())
			if r.TotalSec <= 0 || r.EnergyJ <= 0 || r.StageSec <= 0 {
				t.Fatalf("%s on %s: nonpositive results %+v", b.Name(), cfg.Name, r)
			}
			if r.StepSec < r.StageSec*dg.NumStages*0.999 {
				t.Errorf("%s on %s: step time %g < 5 stages %g", b.Name(), cfg.Name, r.StepSec, r.StageSec*5)
			}
			if r.DynamicJ <= 0 || r.StaticJ <= 0 {
				t.Errorf("%s on %s: energy split wrong", b.Name(), cfg.Name)
			}
			bd := r.Breakdown
			if bd.ComputeSec <= 0 || bd.InterTransferSec <= 0 {
				t.Errorf("%s on %s: breakdown missing compute or inter-element time", b.Name(), cfg.Name)
			}
			if r.Plan.Batches > 1 && bd.DRAMSec == 0 {
				t.Errorf("%s on %s: batched plan must show DRAM time", b.Name(), cfg.Name)
			}
			if r.Plan.Batches == 1 && bd.DRAMSec != 0 {
				t.Errorf("%s on %s: unbatched plan must not pay per-stage DRAM", b.Name(), cfg.Name)
			}
		}
	}
}

// The timed runner prices its run without committing engine phases, so the
// engine's clock gauges (sim.total_seconds and the total and static
// energies) stay unwritten rather than reading 0 beside the run's own
// run.total_seconds; a functional session, which commits phases, still
// writes them.
func TestRunPublishesNoUncommittedClock(t *testing.T) {
	clock := []string{"sim.total_seconds", "sim.total_energy_joules", "sim.static_energy_joules"}
	sink := obs.NewSink()
	opt := DefaultOptions()
	opt.TimeSteps = 8
	opt.Obs = sink
	res := mustRun(t, opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}, chip.Config2GB(), opt)
	snap := sink.Reg.Snapshot()
	if got := snap.Gauges["run.total_seconds"]; got != res.TotalSec || got <= 0 {
		t.Errorf("run.total_seconds = %g, want the result's %g > 0", got, res.TotalSec)
	}
	for _, name := range clock {
		if v, ok := snap.Gauges[name]; ok {
			t.Errorf("timed run published %s = %g; its engine committed no phase", name, v)
		}
	}

	sink = obs.NewSink()
	s := sessionForTest(t, WithObs(sink))
	if err := s.Run(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	snap = sink.Reg.Snapshot()
	for _, name := range clock {
		if v := snap.Gauges[name]; v <= 0 {
			t.Errorf("functional session published %s = %g, want > 0", name, v)
		}
	}
	if got, want := snap.Gauges["sim.total_seconds"], s.Engine().TotalTime(); got != want {
		t.Errorf("sim.total_seconds = %g, engine clock %g", got, want)
	}
}

// Pipelining always helps (or at worst does nothing).
func TestPipeliningNeverHurts(t *testing.T) {
	for _, b := range opcount.AllBenchmarks()[:3] {
		for _, cfg := range []chip.Config{chip.Config512MB(), chip.Config2GB()} {
			on := mustRun(t, b, cfg, quickOpts())
			off := quickOpts()
			off.Pipelined = false
			flat := mustRun(t, b, cfg, off)
			if on.StageSec > flat.StageSec*1.0001 {
				t.Errorf("%s on %s: pipelined %g > unpipelined %g", b.Name(), cfg.Name, on.StageSec, flat.StageSec)
			}
		}
	}
}

// The bus interconnect is never faster than the H-tree on flux-heavy runs,
// and the Morton placement never loses to row-major on inter-element time.
func TestTopologyAndPlacementOrdering(t *testing.T) {
	b := opcount.Benchmark{Eq: opcount.ElasticCentral, Refinement: 4}
	ht := mustRun(t, b, chip.Config2GB(), quickOpts())
	busCfg := chip.Config2GB()
	busCfg.Interconnect = chip.Bus
	bus := mustRun(t, b, busCfg, quickOpts())
	if bus.TotalSec < ht.TotalSec {
		t.Errorf("bus run (%g) should not beat H-tree (%g)", bus.TotalSec, ht.TotalSec)
	}
	rm := quickOpts()
	rm.Morton = false
	rowMajor := mustRun(t, b, chip.Config2GB(), rm)
	if rowMajor.Breakdown.InterTransferSec < ht.Breakdown.InterTransferSec {
		t.Errorf("row-major placement (%g) should not beat Morton (%g) on inter-element transfers",
			rowMajor.Breakdown.InterTransferSec, ht.Breakdown.InterTransferSec)
	}
}

// Total time scales linearly in time-steps (setup aside).
func TestRunLinearInSteps(t *testing.T) {
	b := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	o1, o2 := quickOpts(), quickOpts()
	o1.TimeSteps, o2.TimeSteps = 100, 200
	r1 := mustRun(t, b, chip.Config2GB(), o1)
	r2 := mustRun(t, b, chip.Config2GB(), o2)
	growth := (r2.TotalSec - r1.TotalSec) / r1.StepSec
	if growth < 99 || growth > 101 {
		t.Errorf("time growth over 100 extra steps = %g step-times, want ~100", growth)
	}
}

// FluxFor maps benchmark groups to the right solver.
func TestFluxFor(t *testing.T) {
	if FluxFor(opcount.Acoustic) != dg.RiemannFlux {
		t.Error("acoustic group uses the Riemann solver (its sqrt/inverse feed the host offload)")
	}
	if FluxFor(opcount.ElasticCentral) != dg.CentralFlux {
		t.Error("elastic-central group uses the central solver")
	}
	if FluxFor(opcount.ElasticRiemann) != dg.RiemannFlux {
		t.Error("elastic-riemann group uses the Riemann solver")
	}
}

// The per-batch timeline exists only for pipelined runs and is
// internally consistent.
func TestTimelineConsistency(t *testing.T) {
	b := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	r := mustRun(t, b, chip.Config2GB(), quickOpts())
	if len(r.Timeline) == 0 {
		t.Fatal("pipelined run must produce a timeline")
	}
	var maxEnd float64
	for _, p := range r.Timeline {
		if p.Start < 0 || p.Dur < 0 {
			t.Errorf("phase %s has negative time", p.Name)
		}
		if end := p.Start + p.Dur; end > maxEnd {
			maxEnd = end
		}
	}
	// The stage duration equals the timeline's end.
	if diff := (r.StageSec - maxEnd) / r.StageSec; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("stage %g != timeline end %g", r.StageSec, maxEnd)
	}
	off := quickOpts()
	off.Pipelined = false
	if flat := mustRun(t, b, chip.Config2GB(), off); len(flat.Timeline) != 0 {
		t.Error("unpipelined run should not produce a pipeline timeline")
	}
}

// InstrPerStage is populated and larger for elastic than acoustic.
func TestInstrAccounting(t *testing.T) {
	ac := mustRun(t, opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}, chip.Config512MB(), quickOpts())
	el := mustRun(t, opcount.Benchmark{Eq: opcount.ElasticCentral, Refinement: 4}, chip.Config2GB(), quickOpts())
	if ac.InstrPerStage <= 0 || el.InstrPerStage <= ac.InstrPerStage {
		t.Errorf("instruction accounting wrong: acoustic %d, elastic %d", ac.InstrPerStage, el.InstrPerStage)
	}
}
