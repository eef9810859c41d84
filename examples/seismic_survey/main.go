// Seismic survey: the oil-and-gas exploration workload that motivates the
// paper. A Ricker-wavelet point source fires in a two-layer acoustic
// medium (sediment over bedrock); a line of near-surface receivers records
// the pressure field, showing the direct arrival and the reflection from
// the impedance contrast. The survey class is then sized on the four
// Wave-PIM chip configurations to show how the planner folds or expands
// it.
package main

import (
	"fmt"
	"strings"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
	"wavepim/internal/report"
	"wavepim/internal/wavefield"
	"wavepim/internal/wavepim"
)

func main() {
	// Two-layer medium: slow sediment above, fast bedrock below.
	m := mesh.New(2, 5, false)                          // 64 elements, reflective boundaries
	sediment := material.Acoustic{Kappa: 1.0, Rho: 1.0} // c = 1.0
	bedrock := material.Acoustic{Kappa: 9.0, Rho: 1.44} // c = 2.5
	field := material.UniformAcoustic(m.NumElem, sediment)
	for e := 0; e < m.NumElem; e++ {
		_, _, ez := m.ElemCoords(e)
		if ez < m.EPerAxis/2 { // bottom half of the domain
			field.ByElem[e] = bedrock
		}
	}

	solver := dg.NewAcousticSolver(m, field, dg.RiemannFlux)
	solver.Boundary = dg.PressureRelease
	it := dg.NewAcousticIntegrator(solver)
	state := dg.NewAcousticState(m)

	// Shot near the surface; receivers along a surface line.
	src := dg.NewPointSource(m, 0.5, 0.5, 0.9, 1.0)
	src.PeakFreq, src.Delay = 5, 0.2
	it.Source = func(t float64, rhs *dg.AcousticState) { src.AddTo(t, rhs.P, m.NodesPerEl) }
	var receivers []*dg.Receiver
	for _, x := range []float64{0.2, 0.4, 0.6, 0.8} {
		receivers = append(receivers, dg.NewReceiver(m, x, 0.5, 0.95))
	}

	dt := solver.MaxStableDt(0.25)
	const steps = 400
	t := 0.0
	for i := 0; i < steps; i++ {
		it.Step(state, t, dt)
		t += dt
		for _, r := range receivers {
			r.Record(t, state.P, m.NodesPerEl)
		}
	}

	fmt.Printf("seismic survey: %d elements, two-layer medium (c=%.1f over c=%.1f), %d steps to t=%.3f\n",
		m.NumElem, sediment.SoundSpeed(), bedrock.SoundSpeed(), steps, t)

	// A vertical cross-section of the final pressure field through the
	// shot point (x-z plane at y = 0.5): the ASCII art shows the wavefront
	// pattern straddling the layer interface.
	snap := wavefield.Sample(m, state.P, wavefield.Plane{Axis: mesh.AxisY, Coord: 0.5}, 56, 24)
	fmt.Printf("\npressure |p| cross-section at y=0.5 (x horizontal, z vertical; interface at z=0.5):\n%s",
		snap.ASCII())
	fmt.Printf("cross-section RMS pressure: %.4f\n", snap.RMS())

	fmt.Println("\nseismograms (peak |p| and arrival time per receiver):")
	for i, r := range receivers {
		pt, pv := r.PeakAbs()
		fmt.Printf("  receiver %d (offset %.1f): peak %+.4f at t=%.3f   %s\n",
			i, 0.2+0.2*float64(i), pv, pt, sparkline(r.Values, 48))
	}

	// Size the survey class (refinement-4/5 acoustic) on the PIM chips.
	fmt.Println("\nproduction sizing on Wave-PIM (1024 time-steps):")
	for _, ref := range []int{4, 5} {
		b := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: ref}
		for _, cfg := range chip.AllConfigs() {
			res, err := wavepim.Run(b, cfg, wavepim.DefaultOptions())
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-11s on %-9s  %-4s %2d batch(es)   %-8s %s\n",
				b.Name(), cfg.Name, res.Plan.Table5String(), res.Plan.Batches,
				report.Seconds(res.TotalSec), report.Joules(res.EnergyJ))
		}
	}
}

// sparkline renders a crude ASCII trace of the seismogram.
func sparkline(v []float64, width int) string {
	if len(v) == 0 {
		return ""
	}
	var maxAbs float64
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > maxAbs {
			maxAbs = x
		}
	}
	if maxAbs == 0 {
		return strings.Repeat("-", width)
	}
	levels := []rune("_.-~^")
	var b strings.Builder
	step := len(v) / width
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(v); i += step {
		a := v[i]
		if a < 0 {
			a = -a
		}
		idx := int(a / maxAbs * float64(len(levels)-1))
		b.WriteRune(levels[idx])
	}
	return b.String()
}
