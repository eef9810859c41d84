// Command wavesim runs the reference discontinuous-Galerkin wave solver
// (the numerics ground truth of the reproduction) on a periodic unit cube
// and reports accuracy and energy-conservation diagnostics.
//
// Usage:
//
//	wavesim -eq acoustic -refine 2 -np 6 -steps 100 -flux riemann
//
// Every equation (acoustic, elastic, maxwell) runs through the same LSRK
// integrator, so -guard N works for each: it checks the solver's health
// (finite values, squared-norm growth within -blowup) every N steps and
// exits 1 when a check fails. A -steps below 1, a -cfl that is not a
// finite number above 0, or a negative -guard prints a message naming the
// flag and exits 2.
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
	guard := flag.Int("guard", 0, "check solver health (finiteness, norm blow-up) every N steps; 0 disables")
	blowup := flag.Float64("blowup", 1e3, "health guard: allowed squared-norm growth factor over the initial state")
	eventLogPath := flag.String("eventlog", "", "write structured JSONL run events to this file ('-' for stderr)")
	topology := flag.String("topology", "htree", "traced PIM run's tile interconnect: htree, bus, mesh, torus, flatfly, dragonfly")
	flag.Parse()

	if *steps < 1 {
		fmt.Fprintf(os.Stderr, "-steps %d: want at least 1\n", *steps)
		os.Exit(2)
	}
	if !(*cfl > 0) || math.IsInf(*cfl, 1) {
		fmt.Fprintf(os.Stderr, "-cfl %g: want a finite number above 0\n", *cfl)
		os.Exit(2)
	}
	if *guard < 0 {
		fmt.Fprintf(os.Stderr, "-guard %d: want 0 (off) or a positive step count\n", *guard)
		os.Exit(2)
	}
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

	setup, ok := equations[*eq]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown equation %q\n", *eq)
		os.Exit(2)
	}
	p := setup(m, flux, *cfl, sink)
	e0 := p.energy()
	tEnd, err := p.run(*steps, *guard, *blowup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "health guard: %v\n", err)
		os.Exit(1)
	}
	e1 := p.energy()
	var worst float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < m.NodesPerEl; n++ {
			x, _, _ := m.NodePosition(e, n)
			if d := math.Abs(p.field[e*m.NodesPerEl+n] - p.exact(x, tEnd)); d > worst {
				worst = d
			}
		}
	}
	drift := math.Abs(e1-e0) / e0
	fmt.Printf("%s %s flux: dt=%.3e, t=%.4f after %d steps%s\n", *eq, flux, p.dt, tEnd, *steps, p.detail)
	fmt.Printf("  %s max error: %.3e\n", p.errName, worst)
	fmt.Printf("  energy drift: %.3e (E0=%.6f E1=%.6f)\n", drift, e0, e1)
	log.Info("solver.result", eventlog.F64("dt", p.dt), eventlog.F64("t_end", tEnd),
		eventlog.F64("max_error", worst), eventlog.F64("energy_drift", drift))

	if sink == nil {
		return
	}
	// Time the matching PIM benchmark so the trace carries the stage
	// pipeline (Figure 13) alongside the dG solver's metrics.
	opt := wavepim.DefaultOptions()
	opt.TimeSteps = *steps
	opt.Obs = sink
	b := opcount.Benchmark{Eq: p.pim, Refinement: *refine}
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

// planeWave is one equation's reference run from a plane wave, held as
// closures over its integrator and state so one driver serves every
// equation.
type planeWave struct {
	dt      float64
	energy  func() float64
	run     func(steps, guard int, blowup float64) (tEnd float64, err error)
	field   []float64                  // the state component checked against exact
	exact   func(x, t float64) float64 // the plane wave's value of field
	detail  string                     // material summary for the result line
	errName string                     // what the max-error line checks
	pim     opcount.Equation           // the matching PIM benchmark's equation
}

// newPlaneWave wraps an integrator on q stepping dt. Its run checks the
// solver's health every guard steps when guard > 0.
func newPlaneWave[S dg.State](it *dg.Integrator[S], q S, dt float64, energy func(S) float64) planeWave {
	return planeWave{
		dt:     dt,
		energy: func() float64 { return energy(q) },
		run: func(steps, guard int, blowup float64) (float64, error) {
			if guard > 0 {
				return it.RunGuarded(q, 0, dt, steps, guard, blowup)
			}
			return it.Run(q, 0, dt, steps), nil
		},
	}
}

// equations sets up each equation's plane-wave run on m.
var equations = map[string]func(m *mesh.Mesh, flux dg.FluxType, cfl float64, sink *obs.Sink) planeWave{
	"acoustic": func(m *mesh.Mesh, flux dg.FluxType, cfl float64, sink *obs.Sink) planeWave {
		mat := material.Acoustic{Kappa: 2.25, Rho: 1.0}
		s := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), flux)
		s.Obs = sink
		q := dg.NewAcousticState(m)
		dg.PlaneWaveX(m, mat, 1, q)
		p := newPlaneWave(dg.NewAcousticIntegrator(s), q, s.MaxStableDt(cfl), s.Energy)
		p.field, p.errName, p.pim = q.P, "plane-wave", opcount.Acoustic
		p.exact = func(x, t float64) float64 { return dg.PlaneWaveXAt(mat, 1, x, t) }
		return p
	},
	"elastic": func(m *mesh.Mesh, flux dg.FluxType, cfl float64, sink *obs.Sink) planeWave {
		mat := material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
		s := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, mat), flux)
		s.Obs = sink
		q := dg.NewElasticState(m)
		dg.PlaneWavePX(m, mat, 1, q)
		p := newPlaneWave(dg.NewElasticIntegrator(s), q, s.MaxStableDt(cfl), s.Energy)
		p.field, p.errName, p.pim = q.V[0], "P-wave", opcount.ElasticRiemann
		if flux == dg.CentralFlux {
			p.pim = opcount.ElasticCentral
		}
		p.exact = func(x, t float64) float64 { return dg.PlaneWavePXAt(mat, 1, x, t) }
		p.detail = fmt.Sprintf(" (cp=%.2f cs=%.2f)", mat.PWaveSpeed(), mat.SWaveSpeed())
		return p
	},
	"maxwell": func(m *mesh.Mesh, flux dg.FluxType, cfl float64, sink *obs.Sink) planeWave {
		mat := material.Dielectric{Eps: 2.25, Mu: 1}
		s := dg.NewMaxwellSolver(m, mat, flux)
		s.Obs = sink
		q := dg.NewMaxwellState(m)
		dg.PlaneWaveEM(m, mat, 1, q)
		p := newPlaneWave(dg.NewMaxwellIntegrator(s), q, s.MaxStableDt(cfl), s.Energy)
		p.field, p.errName, p.pim = q.E[1], "EM plane-wave", opcount.Maxwell
		p.exact = func(x, t float64) float64 { return dg.PlaneWaveEMAt(mat, 1, x, t) }
		p.detail = fmt.Sprintf(" (c=%.3f, eta=%.3f)", mat.LightSpeed(), mat.Impedance())
		return p
	},
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
