// Quickstart: simulate an acoustic plane wave three ways —
//
//  1. with the reference discontinuous-Galerkin solver (float64 ground
//     truth),
//  2. functionally inside simulated PIM crossbar cells (every value lives
//     in memristor arrays, every kernel runs as compiled PIM
//     instructions), and
//  3. as a timed run of the paper's Acoustic_4 benchmark on the 2 GB
//     Wave-PIM chip versus the fused Tesla V100 baseline.
package main

import (
	"fmt"
	"math"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/gpu"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/report"
	"wavepim/internal/wavepim"
)

func main() {
	// --- 1. Reference solve ---
	m := mesh.New(1, 4, true) // 8 elements, 64 GLL nodes each, periodic
	water := material.Acoustic{Kappa: 2.25, Rho: 1.0}
	solver := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, water), dg.RiemannFlux)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, water, 1, q)
	qPim := q.Copy()

	it := dg.NewAcousticIntegrator(solver)
	dt := solver.MaxStableDt(0.3)
	const steps = 5
	it.Run(q, 0, dt, steps)
	fmt.Printf("reference dG solver: %d elements, dt=%.2e, %d steps\n", m.NumElem, dt, steps)

	// --- 2. The same simulation inside PIM crossbars ---
	s, err := wavepim.NewSession(
		wavepim.WithMesh(m),
		wavepim.WithAcousticMaterial(water),
		wavepim.WithFlux(dg.RiemannFlux),
		wavepim.WithDt(dt),
	)
	if err != nil {
		panic(err)
	}
	fa := s.Acoustic()
	fa.Load(qPim)
	fa.Run(steps)
	got := dg.NewAcousticState(m)
	fa.ReadState(got)

	var worst float64
	for i := range q.P {
		if d := math.Abs(q.P[i] - got.P[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("functional PIM run:  max deviation from reference %.2e (float32 round-off)\n", worst)
	fmt.Printf("                     %d PIM instructions, %d inter-block transfers, %s simulated\n",
		fa.Engine.InstrCount, fa.Engine.TransferCt, report.Seconds(fa.Engine.TotalTime()))

	// --- 3. Paper-scale timing: Acoustic_4 on the 2 GB chip vs Fused-V100 ---
	bench := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	res, err := wavepim.Run(bench, chip.Config2GB(), wavepim.DefaultOptions())
	if err != nil {
		panic(err)
	}
	v100 := gpu.Model{Spec: params.TeslaV100, Impl: gpu.Fused}
	gt := v100.RunTime(bench, params.TimeStepsPerRun)
	fmt.Printf("\npaper benchmark %s (1024 steps):\n", bench.Name())
	fmt.Printf("  Wave-PIM 2GB (%s): %s, %s\n", res.Plan.Table5String(),
		report.Seconds(res.TotalSec), report.Joules(res.EnergyJ))
	fmt.Printf("  Fused V100 model:   %s, %s\n", report.Seconds(gt), report.Joules(v100.Energy(bench, params.TimeStepsPerRun)))
	fmt.Printf("  PIM speedup: %.1fx\n", gt/res.TotalSec)
}
