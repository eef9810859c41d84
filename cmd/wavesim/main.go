// Command wavesim runs the reference discontinuous-Galerkin wave solver
// (the numerics ground truth of the reproduction) on a periodic unit cube
// and reports accuracy and energy-conservation diagnostics.
//
// Usage:
//
//	wavesim -eq acoustic -refine 2 -np 6 -steps 100 -flux riemann
//
// With -trace and/or -metrics it additionally times the matching PIM
// benchmark and exports observability output: -trace writes a Chrome
// trace_event JSON (chrome://tracing, Perfetto) of the Figure 13
// Volume/Fetch/Flux/Integration stage pipeline; -metrics writes the full
// metrics-registry snapshot (dG solver RHS timings plus PIM run gauges).
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/pim/chip"
	"wavepim/internal/wavepim"
)

func main() {
	eq := flag.String("eq", "acoustic", "equation: acoustic, elastic, or maxwell")
	refine := flag.Int("refine", 1, "refinement level ((2^n)^3 elements)")
	np := flag.Int("np", 6, "GLL nodes per axis within an element")
	steps := flag.Int("steps", 100, "time steps")
	fluxName := flag.String("flux", "riemann", "flux solver: central or riemann")
	cfl := flag.Float64("cfl", 0.3, "CFL number")
	tracePath := flag.String("trace", "", "write a Chrome trace of the PIM stage pipeline to this file")
	metricsPath := flag.String("metrics", "", "write the metrics registry snapshot (JSON) to this file")
	guard := flag.Int("guard", 0, "check solver health (finiteness, norm blow-up) every N steps; 0 disables (acoustic/elastic)")
	blowup := flag.Float64("blowup", 1e3, "health guard: allowed squared-norm growth factor over the initial state")
	eventLogPath := flag.String("eventlog", "", "write structured JSONL run events to this file ('-' for stderr)")
	topology := flag.String("topology", "htree", "traced PIM run's tile interconnect: htree, bus, mesh, torus, flatfly, dragonfly")
	flag.Parse()

	topoKind, err := chip.ParseInterconnect(*topology)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-topology: %v\n", err)
		os.Exit(2)
	}

	var sink *obs.Sink
	if *tracePath != "" || *metricsPath != "" {
		sink = obs.NewSink()
	}
	log := openEventLog(*eventLogPath)
	log.Info("solver.start",
		eventlog.Str("equation", *eq),
		eventlog.Int("steps", *steps),
		eventlog.Str("flux", *fluxName))

	var flux dg.FluxType
	switch *fluxName {
	case "central":
		flux = dg.CentralFlux
	case "riemann":
		flux = dg.RiemannFlux
	default:
		fmt.Fprintf(os.Stderr, "unknown flux %q\n", *fluxName)
		os.Exit(2)
	}

	if err := mesh.Check(*refine, *np); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	m := mesh.New(*refine, *np, true)
	fmt.Printf("mesh: refinement %d, %d elements, %d nodes/element (%d unknowns/var)\n",
		*refine, m.NumElem, m.NodesPerEl, m.NumElem*m.NodesPerEl)

	switch *eq {
	case "acoustic":
		mat := material.Acoustic{Kappa: 2.25, Rho: 1.0}
		s := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), flux)
		s.Obs = sink
		q := dg.NewAcousticState(m)
		dg.PlaneWaveX(m, mat, 1, q)
		it := dg.NewAcousticIntegrator(s)
		dt := s.MaxStableDt(*cfl)
		e0 := s.Energy(q)
		var tEnd float64
		if *guard > 0 {
			var gerr error
			tEnd, gerr = it.RunGuarded(q, 0, dt, *steps, *guard, *blowup)
			if gerr != nil {
				fmt.Fprintf(os.Stderr, "health guard: %v\n", gerr)
				os.Exit(1)
			}
		} else {
			tEnd = it.Run(q, 0, dt, *steps)
		}
		e1 := s.Energy(q)
		var worst float64
		for e := 0; e < m.NumElem; e++ {
			for n := 0; n < m.NodesPerEl; n++ {
				x, _, _ := m.NodePosition(e, n)
				want := dg.PlaneWaveXAt(mat, 1, x, tEnd)
				if d := math.Abs(q.P[e*m.NodesPerEl+n] - want); d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("acoustic %s flux: dt=%.3e, t=%.4f after %d steps\n", flux, dt, tEnd, *steps)
		fmt.Printf("  plane-wave max error: %.3e\n", worst)
		fmt.Printf("  energy drift: %.3e (E0=%.6f E1=%.6f)\n", math.Abs(e1-e0)/e0, e0, e1)
		log.Info("solver.result", eventlog.F64("dt", dt), eventlog.F64("t_end", tEnd),
			eventlog.F64("max_error", worst), eventlog.F64("energy_drift", math.Abs(e1-e0)/e0))
	case "elastic":
		mat := material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
		s := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, mat), flux)
		s.Obs = sink
		q := dg.NewElasticState(m)
		dg.PlaneWavePX(m, mat, 1, q)
		it := dg.NewElasticIntegrator(s)
		dt := s.MaxStableDt(*cfl)
		e0 := s.Energy(q)
		var tEnd float64
		if *guard > 0 {
			var gerr error
			tEnd, gerr = it.RunGuarded(q, 0, dt, *steps, *guard, *blowup)
			if gerr != nil {
				fmt.Fprintf(os.Stderr, "health guard: %v\n", gerr)
				os.Exit(1)
			}
		} else {
			tEnd = it.Run(q, 0, dt, *steps)
		}
		e1 := s.Energy(q)
		var worst float64
		for e := 0; e < m.NumElem; e++ {
			for n := 0; n < m.NodesPerEl; n++ {
				x, _, _ := m.NodePosition(e, n)
				want := dg.PlaneWavePXAt(mat, 1, x, tEnd)
				if d := math.Abs(q.V[0][e*m.NodesPerEl+n] - want); d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("elastic %s flux: dt=%.3e, t=%.4f after %d steps (cp=%.2f cs=%.2f)\n",
			flux, dt, tEnd, *steps, mat.PWaveSpeed(), mat.SWaveSpeed())
		fmt.Printf("  P-wave max error: %.3e\n", worst)
		fmt.Printf("  energy drift: %.3e (E0=%.6f E1=%.6f)\n", math.Abs(e1-e0)/e0, e0, e1)
		log.Info("solver.result", eventlog.F64("dt", dt), eventlog.F64("t_end", tEnd),
			eventlog.F64("max_error", worst), eventlog.F64("energy_drift", math.Abs(e1-e0)/e0))
	case "maxwell":
		if *guard > 0 {
			fmt.Fprintln(os.Stderr, "-guard is not supported for maxwell (no guarded integrator)")
			os.Exit(2)
		}
		mat := material.Dielectric{Eps: 2.25, Mu: 1}
		s := dg.NewMaxwellSolver(m, mat, flux)
		s.Obs = sink
		q := dg.NewMaxwellState(m)
		dg.PlaneWaveEM(m, mat, 1, q)
		it := dg.NewMaxwellIntegrator(s)
		dt := s.MaxStableDt(*cfl)
		e0 := s.Energy(q)
		it.Run(q, dt, *steps)
		tEnd := dt * float64(*steps)
		e1 := s.Energy(q)
		var worst float64
		for e := 0; e < m.NumElem; e++ {
			for n := 0; n < m.NodesPerEl; n++ {
				x, _, _ := m.NodePosition(e, n)
				want := dg.PlaneWaveEMAt(mat, 1, x, tEnd)
				if d := math.Abs(q.E[1][e*m.NodesPerEl+n] - want); d > worst {
					worst = d
				}
			}
		}
		fmt.Printf("maxwell %s flux: dt=%.3e, t=%.4f after %d steps (c=%.3f, eta=%.3f)\n",
			flux, dt, tEnd, *steps, mat.LightSpeed(), mat.Impedance())
		fmt.Printf("  EM plane-wave max error: %.3e\n", worst)
		fmt.Printf("  energy drift: %.3e (E0=%.6f E1=%.6f)\n", math.Abs(e1-e0)/e0, e0, e1)
		log.Info("solver.result", eventlog.F64("dt", dt), eventlog.F64("t_end", tEnd),
			eventlog.F64("max_error", worst), eventlog.F64("energy_drift", math.Abs(e1-e0)/e0))
	default:
		fmt.Fprintf(os.Stderr, "unknown equation %q\n", *eq)
		os.Exit(2)
	}

	if sink == nil {
		return
	}
	// Time the matching PIM benchmark so the trace carries the stage
	// pipeline (Figure 13) alongside the dG solver's metrics.
	pimEq := opcount.Acoustic
	switch *eq {
	case "elastic":
		pimEq = opcount.ElasticRiemann
		if flux == dg.CentralFlux {
			pimEq = opcount.ElasticCentral
		}
	case "maxwell":
		pimEq = opcount.Maxwell
	}
	opt := wavepim.DefaultOptions()
	opt.TimeSteps = *steps
	opt.Obs = sink
	b := opcount.Benchmark{Eq: pimEq, Refinement: *refine}
	pimCfg := chip.Config16GB()
	pimCfg.Interconnect = topoKind
	res, err := wavepim.Run(b, pimCfg, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pim run: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("pim %s on PIM-16GB (%s): %.4fs total, %.2f J (stage pipeline traced)\n",
		b.Name(), pimCfg.Interconnect, res.TotalSec, res.EnergyJ)
	log.Info("pim.run", eventlog.Str("bench", b.Name()),
		eventlog.F64("total_seconds", res.TotalSec), eventlog.F64("energy_joules", res.EnergyJ))
	if err := writeObs(sink, *tracePath, *metricsPath); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
}

// openEventLog opens the -eventlog destination: "" disables (nil logger,
// every emit no-ops), "-" is stderr, anything else a file that stays open
// for the process lifetime.
func openEventLog(path string) *eventlog.Logger {
	switch path {
	case "":
		return nil
	case "-":
		return eventlog.New(os.Stderr, eventlog.Debug)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return eventlog.New(f, eventlog.Debug)
}

// writeObs exports the sink to the requested files.
func writeObs(sink *obs.Sink, tracePath, metricsPath string) error {
	write := func(path string, export func(w io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := export(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
		return f.Close()
	}
	if err := write(tracePath, sink.WriteTrace); err != nil {
		return err
	}
	return write(metricsPath, sink.WriteMetrics)
}
