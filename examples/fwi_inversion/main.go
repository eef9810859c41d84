// Full-waveform-inversion flavour: the paper's motivating workload is
// "repeated solutions of the wave equation" inside inversion loops
// ("major components of full-waveform inversion"). This example inverts
// for an unknown bedrock wave speed: synthetic "observed" seismograms are
// generated with the true model, then a sweep of candidate speeds runs
// the same forward simulation and the data misfit picks the best
// candidate. Each candidate is one full forward solve — exactly the
// repeated-solve pattern Wave-PIM accelerates — so the example closes by
// pricing the whole sweep on the PIM versus the fused V100 model.
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

const (
	trueBedrockC = 2.2
	steps        = 240
)

// forward runs one forward simulation with the given bedrock speed and
// returns the recorded traces at three receivers.
func forward(bedrockC float64) [][]float64 {
	m := mesh.New(1, 6, false)
	sediment := material.Acoustic{Kappa: 1, Rho: 1}
	bedrock := material.Acoustic{Kappa: bedrockC * bedrockC, Rho: 1}
	field := material.UniformAcoustic(m.NumElem, sediment)
	for e := 0; e < m.NumElem; e++ {
		_, _, ez := m.ElemCoords(e)
		if ez == 0 { // bottom layer
			field.ByElem[e] = bedrock
		}
	}
	s := dg.NewAcousticSolver(m, field, dg.RiemannFlux)
	s.Boundary = dg.PressureRelease
	it := dg.NewAcousticIntegrator(s)
	src := dg.NewPointSource(m, 0.5, 0.5, 0.85, 1)
	src.PeakFreq, src.Delay = 4, 0.25
	it.Source = func(t float64, rhs *dg.AcousticState) { src.AddTo(t, rhs.P, m.NodesPerEl) }

	receivers := []*dg.Receiver{
		dg.NewReceiver(m, 0.25, 0.5, 0.9),
		dg.NewReceiver(m, 0.5, 0.25, 0.9),
		dg.NewReceiver(m, 0.75, 0.75, 0.9),
	}
	q := dg.NewAcousticState(m)
	// One fixed dt for every candidate (stable for the fastest sweep
	// member, c = 2.6) so all traces share the same time axis and the
	// misfit measures physics, not sampling.
	minDx := (m.Rule.Points[1] - m.Rule.Points[0]) * m.H / 2
	dt := 0.25 * minDx / 2.6
	t := 0.0
	for i := 0; i < steps; i++ {
		it.Step(q, t, dt)
		t += dt
		for _, r := range receivers {
			r.Record(t, q.P, m.NodesPerEl)
		}
	}
	out := make([][]float64, len(receivers))
	for i, r := range receivers {
		out[i] = r.Values
	}
	return out
}

// misfit is the L2 distance between trace sets.
func misfit(a, b [][]float64) float64 {
	var s float64
	for i := range a {
		for j := range a[i] {
			d := a[i][j] - b[i][j]
			s += d * d
		}
	}
	return math.Sqrt(s)
}

func main() {
	fmt.Printf("generating observed data with true bedrock speed c = %.2f ...\n", trueBedrockC)
	observed := forward(trueBedrockC)

	candidates := []float64{1.6, 1.8, 2.0, 2.2, 2.4, 2.6}
	best, bestMisfit := 0.0, math.Inf(1)
	fmt.Println("\ninversion sweep (each row is one full forward solve):")
	for _, c := range candidates {
		mf := misfit(observed, forward(c))
		marker := ""
		if mf < bestMisfit {
			best, bestMisfit = c, mf
			marker = "  <- best so far"
		}
		fmt.Printf("  candidate c = %.2f   misfit %.4f%s\n", c, mf, marker)
	}
	fmt.Printf("\nrecovered bedrock speed: %.2f (true: %.2f)\n", best, trueBedrockC)

	// Price the production-scale version of this sweep: N forward solves
	// of the refinement-4 acoustic benchmark.
	bench := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	pim, err := wavepim.Run(bench, chip.Config2GB(), wavepim.DefaultOptions())
	if err != nil {
		panic(err)
	}
	v100 := gpu.Model{Spec: params.TeslaV100, Impl: gpu.Fused}
	gt := v100.RunTime(bench, params.TimeStepsPerRun)
	n := float64(len(candidates))
	fmt.Printf("\nproduction sweep cost (%d forward solves of %s):\n", len(candidates), bench.Name())
	fmt.Printf("  Wave-PIM 2GB:  %s, %s\n", report.Seconds(pim.TotalSec*n), report.Joules(pim.EnergyJ*n))
	fmt.Printf("  Fused V100:    %s, %s\n", report.Seconds(gt*n), report.Joules(v100.Energy(bench, params.TimeStepsPerRun)*n))
	fmt.Printf("  sweep speedup: %.1fx, energy savings: %.1fx\n",
		gt/pim.TotalSec, v100.Energy(bench, params.TimeStepsPerRun)/pim.EnergyJ)
}
