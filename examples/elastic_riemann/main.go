// Elastic waves with the Riemann solver: simultaneous P- and S-wave
// propagation through an elastic solid — the paper's most expensive
// benchmark group. The example verifies both wave speeds against the
// analytic solutions, shows the upwind solver's controlled dissipation,
// runs the same physics functionally inside simulated PIM crossbars, and
// times the production-sized Elastic-Riemann benchmarks on the PIM chips.
package main

import (
	"fmt"
	"math"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
	"wavepim/internal/report"
	"wavepim/internal/wavepim"
)

func main() {
	m := mesh.New(1, 6, true)
	rock := material.Elastic{Lambda: 2, Mu: 1, Rho: 1} // cp = 2, cs = 1
	solver := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, rock), dg.RiemannFlux)
	it := dg.NewElasticIntegrator(solver)
	dt := solver.MaxStableDt(0.3)

	// P-wave accuracy.
	qp := dg.NewElasticState(m)
	dg.PlaneWavePX(m, rock, 1, qp)
	tEnd := it.Run(qp, 0, dt, 60)
	var errP float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < m.NodesPerEl; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := dg.PlaneWavePXAt(rock, 1, x, tEnd)
			if d := math.Abs(qp.V[0][e*m.NodesPerEl+n] - want); d > errP {
				errP = d
			}
		}
	}

	// S-wave accuracy (half the speed, twice the transit time).
	qs := dg.NewElasticState(m)
	dg.PlaneWaveSX(m, rock, 1, qs)
	tEndS := it.Run(qs, 0, dt, 60)
	var errS float64
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < m.NodesPerEl; n++ {
			x, _, _ := m.NodePosition(e, n)
			want := dg.PlaneWaveSXAt(rock, 1, x, tEndS)
			if d := math.Abs(qs.V[1][e*m.NodesPerEl+n] - want); d > errS {
				errS = d
			}
		}
	}
	fmt.Printf("elastic Riemann solver (cp=%.1f, cs=%.1f): P-wave err %.2e, S-wave err %.2e after 60 steps\n",
		rock.PWaveSpeed(), rock.SWaveSpeed(), errP, errS)

	// Energy behaviour: the upwind flux never creates energy.
	e0 := solver.Energy(qp)
	it.Run(qp, tEnd, dt, 60)
	e1 := solver.Energy(qp)
	fmt.Printf("upwind energy behaviour: E0=%.6f -> E1=%.6f (never grows)\n", e0, e1)

	// The same physics inside simulated PIM crossbars (four-block E_r
	// layout, all nine variables in memristor cells).
	small := mesh.New(1, 4, true)
	ref := dg.NewElasticSolver(small, material.UniformElastic(small.NumElem, rock), dg.RiemannFlux)
	refIt := dg.NewElasticIntegrator(ref)
	sdt := ref.MaxStableDt(0.3)
	qr := dg.NewElasticState(small)
	dg.PlaneWavePX(small, rock, 1, qr)
	qPim := qr.Copy()
	s, err := wavepim.NewSession(
		wavepim.WithEquation(opcount.ElasticRiemann),
		wavepim.WithMesh(small),
		wavepim.WithElasticMaterial(rock),
		wavepim.WithDt(sdt),
	)
	if err != nil {
		panic(err)
	}
	fe := s.Elastic()
	fe.Load(qPim)
	refIt.Run(qr, 0, sdt, 3)
	fe.Run(3)
	got := dg.NewElasticState(small)
	fe.ReadState(got)
	var dev float64
	for c := 0; c < dg.NumStress; c++ {
		for i := range qr.S[c] {
			if d := math.Abs(qr.S[c][i] - got.S[c][i]); d > dev {
				dev = d
			}
		}
	}
	fmt.Printf("functional PIM (E_r four-block layout): max stress deviation %.2e over 3 steps\n", dev)
	fmt.Printf("  %d instructions, %d transfers (Figure 8's cross-block Volume memcpy included)\n",
		fe.Engine.InstrCount, fe.Engine.TransferCt)

	// Production sizing.
	fmt.Println("\nElastic-Riemann on Wave-PIM (1024 time-steps):")
	for _, ref := range []int{4, 5} {
		b := opcount.Benchmark{Eq: opcount.ElasticRiemann, Refinement: ref}
		for _, cfg := range chip.AllConfigs() {
			res, err := wavepim.Run(b, cfg, wavepim.DefaultOptions())
			if err != nil {
				panic(err)
			}
			fmt.Printf("  %-18s on %-9s  %-7s %2d batch(es)  %-8s %s\n",
				b.Name(), cfg.Name, res.Plan.Table5String(), res.Plan.Batches,
				report.Seconds(res.TotalSec), report.Joules(res.EnergyJ))
		}
	}
}
