// Command wavepim runs Wave-PIM simulations.
//
// Timing mode (default) runs a full evaluation benchmark on a chip
// configuration and prints time, energy, and the activity breakdown:
//
//	wavepim -bench acoustic_4 -chip 2GB
//	wavepim -bench elastic-riemann_5 -chip 16GB -interconnect bus -pipelined=false
//
// Functional mode executes a small simulation entirely inside simulated
// crossbar cells and verifies the result against the reference dG solver:
//
//	wavepim -functional -refine 1 -np 4 -fsteps 3
//
// The functional flags form a job spec and pass the same validator the
// daemons apply (cluster.JobSpec.Normalize): an out-of-range -refine or
// -np, or a malformed -faults/-recover/-interconnect, prints the typed
// error and exits 2. A zero -refine, -np or -fsteps selects the spec's
// default (1, 4, 4).
//
// Functional mode can also inject deterministic hardware faults and heal
// through the recovery ladder (ECC scrub, verify-retry, spare-block remap,
// checkpointed rollback), printing a reproducible fault report:
//
//	wavepim -functional -faults seed=7,flip=1e-7,stuck=1e-6 -faultreport report.json
//
// With -eventlog the functional run emits structured JSONL events (run
// lifecycle plus one event per recovery-rung firing); with -flight an
// unrecoverable failure additionally writes the flight-recorder dump:
//
//	wavepim -functional -faults seed=13,flip=5e-3 -eventlog - -flight dump.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"wavepim/internal/cluster"
	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/isa"
	"wavepim/internal/report"
	"wavepim/internal/wavepim"
)

func main() {
	benchName := flag.String("bench", "acoustic_4", "benchmark: acoustic_{4,5}, elastic-central_{4,5}, elastic-riemann_{4,5}")
	chipName := flag.String("chip", "2GB", "chip capacity: 512MB, 2GB, 8GB, 16GB")
	interconnect := flag.String("interconnect", "htree", "tile interconnect: htree, bus, mesh, torus, flatfly, dragonfly")
	pipelined := flag.Bool("pipelined", true, "apply the Section 6.3 pipeline")
	steps := flag.Int("steps", 1024, "time steps")
	functional := flag.Bool("functional", false, "run a functional simulation in simulated crossbar cells")
	refine := flag.Int("refine", 1, "functional: refinement level")
	np := flag.Int("np", 4, "functional: GLL nodes per axis")
	fnSteps := flag.Int("fsteps", 3, "functional: time steps")
	faultSpec := flag.String("faults", "", "functional: inject faults, e.g. seed=7,flip=1e-7,stuck=1e-6,wear=100000")
	recoverSpec := flag.String("recover", "", "functional: recovery policy, e.g. ecc=1,retries=2,spares=4,ckpt=8,rollbacks=2,blowup=1e3")
	faultReport := flag.String("faultreport", "", "functional: write the JSON fault report (plus timeline digest) to this file")
	eventLog := flag.String("eventlog", "", "functional: write structured JSONL events (run lifecycle, recovery rungs) to this file ('-' for stderr)")
	flight := flag.String("flight", "", "functional: write the flight-recorder dump (JSON) to this file when the run fails unrecoverably")
	disasm := flag.String("disasm", "", "disassemble a compiled kernel: volume, flux, integration")
	flag.Parse()

	if *disasm != "" {
		runDisasm(*disasm)
		return
	}
	if *functional {
		// The functional flags are a job spec: the validator the daemons
		// apply to POST bodies rejects a bad one here too, before any
		// mesh or chip is built.
		spec, err := cluster.JobSpec{Refine: *refine, Np: *np, Steps: *fnSteps, Topology: *interconnect,
			Faults: *faultSpec, Recover: *recoverSpec}.Normalize()
		if err != nil {
			fmt.Fprintf(os.Stderr, "wavepim -functional: %v\n", err)
			os.Exit(2)
		}
		runFunctional(spec, *faultReport, *eventLog, *flight)
		return
	}

	b, ok := parseBench(*benchName)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *benchName)
		os.Exit(2)
	}
	var cfg chip.Config
	switch strings.ToUpper(*chipName) {
	case "512MB":
		cfg = chip.Config512MB()
	case "2GB":
		cfg = chip.Config2GB()
	case "8GB":
		cfg = chip.Config8GB()
	case "16GB":
		cfg = chip.Config16GB()
	default:
		fmt.Fprintf(os.Stderr, "unknown chip %q\n", *chipName)
		os.Exit(2)
	}
	kind, err := chip.ParseInterconnect(*interconnect)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-interconnect: %v\n", err)
		os.Exit(2)
	}
	cfg.Interconnect = kind

	opt := wavepim.DefaultOptions()
	opt.TimeSteps = *steps
	opt.Pipelined = *pipelined
	res, err := wavepim.Run(b, cfg, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s on %s (%s interconnect, pipelined=%v)\n", b.Name(), cfg.Name, cfg.Interconnect, *pipelined)
	fmt.Printf("  plan: %s, %d batch(es), %d blocks used of %d\n",
		res.Plan.Table5String(), res.Plan.Batches, res.Plan.BlocksUsed(), cfg.NumBlocks())
	fmt.Printf("  per-stage: %s   per-step: %s   total (%d steps): %s\n",
		report.Seconds(res.StageSec), report.Seconds(res.StepSec), *steps, report.Seconds(res.TotalSec))
	fmt.Printf("  energy: %s total (%s dynamic + %s static)\n",
		report.Joules(res.EnergyJ), report.Joules(res.DynamicJ), report.Joules(res.StaticJ))
	bd := res.Breakdown
	fmt.Printf("  breakdown: compute %s | intra-element transfers %s | inter-element transfers %s | DRAM %s | host %s\n",
		report.Seconds(bd.ComputeSec), report.Seconds(bd.IntraTransferSec),
		report.Seconds(bd.InterTransferSec), report.Seconds(bd.DRAMSec), report.Seconds(bd.HostSec))
	if len(res.Timeline) > 0 {
		fmt.Println("  stage pipeline (one batch):")
		for _, p := range res.Timeline {
			fmt.Printf("    %-24s start=%-10s dur=%s\n", p.Name, report.Seconds(p.Start), report.Seconds(p.Dur))
		}
	}
}

// runDisasm prints a compiled kernel as encoded words plus assembly — the
// instruction stream the host actually sends (Section 4.1).
func runDisasm(kernel string) {
	plan := wavepim.Plan{Tech: wavepim.Naive, Layout: wavepim.AcousticOneBlock, SlotsPerElem: 1}
	c := wavepim.NewCompiler(plan, 8, dg.RiemannFlux)
	var prog []isa.Instr
	switch kernel {
	case "volume":
		prog = c.VolumeOneBlock()
	case "flux":
		prog = c.FluxOneBlock(mesh.FaceXMinus)
	case "integration":
		prog = c.IntegrationOneBlock(0)
	default:
		fmt.Fprintf(os.Stderr, "unknown kernel %q (volume, flux, integration)\n", kernel)
		os.Exit(2)
	}
	words, err := isa.Assemble(prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s kernel: %d instructions (acoustic, naive layout, Riemann flux, 512-node element)\n\n",
		kernel, len(prog))
	for i, w := range words {
		fmt.Printf("%4d: %016x  %s\n", i, w, isa.Disassemble(prog[i]))
	}
	mix := isa.Mix(prog)
	a, mu := mix.ArithShare()
	fmt.Printf("\nop mix: %d instrs, %.0f%% arithmetic (%.0f%% of those multiplies)\n",
		mix.Total, a*100, mu*100)
}

func parseBench(s string) (opcount.Benchmark, bool) {
	for _, b := range opcount.AllBenchmarks() {
		if strings.EqualFold(b.Name(), s) {
			return b, true
		}
	}
	return opcount.Benchmark{}, false
}

// runFunctional runs a normalized acoustic job spec in simulated
// crossbar cells beside the float64 reference solver.
func runFunctional(spec cluster.JobSpec, reportPath, eventLogPath, flightPath string) {
	steps := spec.Steps
	m := mesh.New(spec.Refine, spec.Np, true)
	mat := material.Acoustic{Kappa: 2.25, Rho: 1.0}
	fmt.Printf("functional PIM run: %d elements x %d nodes, %d steps, Riemann flux, %s interconnect\n",
		m.NumElem, m.NodesPerEl, steps, spec.Topology)

	ref := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), dg.RiemannFlux)
	it := dg.NewAcousticIntegrator(ref)
	dt := ref.MaxStableDt(spec.CFL)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, mat, 1, q)
	qPim := q.Copy()

	opts := []wavepim.Option{
		wavepim.WithMesh(m),
		wavepim.WithAcousticMaterial(mat),
		wavepim.WithDt(dt),
		wavepim.WithTopology(spec.Topology),
	}
	// Telemetry wiring (the single-process analogue of wavepimd): an
	// event logger, and for -flight a sink-backed recorder teed into it.
	if eventLogPath != "" || flightPath != "" {
		w := os.Stderr
		if eventLogPath != "" && eventLogPath != "-" {
			f, err := os.Create(eventLogPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		var logW io.Writer = w
		if eventLogPath == "" {
			logW = io.Discard // -flight alone: record events, print none
		}
		log := eventlog.New(logW, eventlog.Debug)
		sink := obs.NewSink()
		fr := eventlog.NewFlightRecorder(sink.Trace, 256, 256)
		log.SetRecorder(fr)
		opts = append(opts,
			wavepim.WithObs(sink),
			wavepim.WithRunID("cli"),
			wavepim.WithEventLog(log.WithRun("cli")),
			wavepim.WithFlightRecorder(fr))
		if flightPath != "" {
			f, err := os.Create(flightPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			opts = append(opts, wavepim.WithFlightDump(f))
		}
	}
	faulted := spec.Faults != "" || spec.Recover != ""
	if spec.Faults != "" {
		fcfg, _ := fault.ParseSpec(spec.Faults) // Normalize parsed it
		opts = append(opts, wavepim.WithFaults(fcfg))
	}
	if spec.Recover != "" {
		rec, _ := fault.ParseRecoverySpec(spec.Recover)
		opts = append(opts, wavepim.WithRecovery(rec))
	}
	s, err := wavepim.NewSession(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s.Acoustic().Load(qPim)
	it.Run(q, 0, dt, steps)
	runErr := s.Run(context.Background(), steps)
	eng := s.Engine()

	if runErr == nil {
		got := dg.NewAcousticState(m)
		s.Acoustic().ReadState(got)
		var worst float64
		for i := range q.P {
			if d := math.Abs(q.P[i] - got.P[i]); d > worst {
				worst = d
			}
		}
		note := "float32 vs float64 round-off"
		if faulted {
			note = "includes healed-fault residue"
		}
		fmt.Printf("  max |PIM - reference| pressure deviation: %.3e (%s)\n", worst, note)
	}
	fmt.Printf("  simulated PIM time: %s   dynamic energy: %s\n",
		report.Seconds(eng.TotalTime()), report.Joules(eng.TotalEnergy))
	fmt.Printf("  instructions executed: %d   inter-block transfers: %d\n",
		eng.InstrCount, eng.TransferCt)
	if faulted {
		fmt.Printf("  %s\n", s.FaultReport())
		fmt.Printf("  timeline digest: %016x\n", eng.TimelineDigest())
	}
	if reportPath != "" {
		if err := writeFaultReport(reportPath, s, runErr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		os.Exit(1)
	}
}

// writeFaultReport writes the deterministic run artifact the reproducibility
// guard diffs byte-for-byte: the fault report plus the engine totals and the
// timeline digest. Field order is fixed by the struct.
func writeFaultReport(path string, s *wavepim.Session, runErr error) error {
	eng := s.Engine()
	art := struct {
		Report         fault.Report `json:"report"`
		SimSeconds     float64      `json:"sim_seconds"`
		DynamicJ       float64      `json:"dynamic_energy_joules"`
		Instructions   int64        `json:"instructions"`
		Transfers      int64        `json:"transfers"`
		TimelineDigest string       `json:"timeline_digest"`
		Error          string       `json:"error,omitempty"`
	}{
		Report:         s.FaultReport(),
		SimSeconds:     eng.TotalTime(),
		DynamicJ:       eng.TotalEnergy,
		Instructions:   int64(eng.InstrCount),
		Transfers:      int64(eng.TransferCt),
		TimelineDigest: fmt.Sprintf("%016x", eng.TimelineDigest()),
	}
	if runErr != nil {
		art.Error = runErr.Error()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(art); err != nil {
		return err
	}
	return f.Close()
}
