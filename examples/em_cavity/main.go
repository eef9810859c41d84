// Electromagnetic cavity: the paper's third wave family ("antenna, radar,
// and satellites" modeling motivates the electromagnetic case). A
// periodic dielectric cavity carries superposed plane-wave modes; the
// example verifies the light speed and wave impedance, shows
// energy conservation of the central flux versus controlled upwind
// dissipation, and runs the identical physics functionally inside
// simulated PIM crossbars using the two-block E/H mapping.
package main

import (
	"fmt"
	"math"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/report"
	"wavepim/internal/wavepim"
)

func main() {
	m := mesh.New(1, 6, true)
	diel := material.Dielectric{Eps: 2.25, Mu: 1.0}
	fmt.Printf("dielectric cavity: %d elements, c = %.4f, impedance eta = %.4f\n",
		m.NumElem, diel.LightSpeed(), diel.Impedance())

	// Plane-wave transit: one full domain crossing should return the wave
	// to its initial position (periodic cavity).
	s := dg.NewMaxwellSolver(m, diel, dg.RiemannFlux)
	q := dg.NewMaxwellState(m)
	dg.PlaneWaveEM(m, diel, 1, q)
	it := dg.NewMaxwellIntegrator(s)
	dt := s.MaxStableDt(0.3)
	transit := 1 / diel.LightSpeed() // time for one domain length
	steps := int(math.Round(transit / dt))
	dtExact := transit / float64(steps)
	it.Run(q, 0, dtExact, steps)
	var worst float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < m.NodesPerEl; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := math.Sin(2 * math.Pi * x) // back to the start
			if d := math.Abs(q.E[1][e*m.NodesPerEl+n] - want); d > worst {
				worst = d
			}
		}
	}
	fmt.Printf("full cavity transit (%d steps): max field error %.2e\n", steps, worst)

	// Energy behaviour of the two flux solvers on an under-resolved mode.
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		s := dg.NewMaxwellSolver(m, diel, flux)
		q := dg.NewMaxwellState(m)
		dg.PlaneWaveEM(m, diel, 2, q)
		it := dg.NewMaxwellIntegrator(s)
		e0 := s.Energy(q)
		it.Run(q, 0, s.MaxStableDt(0.3), 100)
		e1 := s.Energy(q)
		fmt.Printf("%s flux: energy %.6f -> %.6f (drift %.2e)\n", flux, e0, e1, math.Abs(e1-e0)/e0)
	}

	// The same physics inside simulated PIM crossbars: the two-block E/H
	// element (the paper's claim that the acoustic/elastic strategies
	// carry to electromagnetics, executed end to end).
	small := mesh.New(1, 4, true)
	ref := dg.NewMaxwellSolver(small, diel, dg.RiemannFlux)
	refIt := dg.NewMaxwellIntegrator(ref)
	sdt := ref.MaxStableDt(0.3)
	qr := dg.NewMaxwellState(small)
	dg.PlaneWaveEM(small, diel, 1, qr)
	qPim := qr.Copy()
	sess, err := wavepim.NewSession(
		wavepim.WithEquation(opcount.Maxwell),
		wavepim.WithMesh(small),
		wavepim.WithDielectric(diel),
		wavepim.WithDt(sdt),
	)
	if err != nil {
		panic(err)
	}
	fm := sess.Maxwell()
	fm.Load(qPim)
	refIt.Run(qr, 0, sdt, 3)
	fm.Run(3)
	got := dg.NewMaxwellState(small)
	fm.ReadState(got)
	var dev float64
	for d := 0; d < 3; d++ {
		for i := range qr.E[d] {
			if x := math.Abs(qr.E[d][i] - got.E[d][i]); x > dev {
				dev = x
			}
			if x := math.Abs(qr.H[d][i] - got.H[d][i]); x > dev {
				dev = x
			}
		}
	}
	fmt.Printf("\nfunctional PIM (two-block E/H element): max deviation %.2e over 3 steps\n", dev)
	fmt.Printf("  %d instructions, %d transfers, %s simulated PIM time\n",
		fm.Engine.InstrCount, fm.Engine.TransferCt, report.Seconds(fm.Engine.TotalTime()))
}
