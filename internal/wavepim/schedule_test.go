package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/xbar"
)

// Every layout schedule must fit its element: moves and programs name
// only the element's slots, every column run fits a row, no two state
// variables share a cell, every variable's slot is a compute slot that
// integrates, and every face move reads state-variable columns. The last
// is what lets a batch serve a face move whose source element lies
// outside the batch from the host image of the state, exactly.
func TestLayoutSchedulesWellFormed(t *testing.T) {
	schedules := []struct {
		name   string
		layout LayoutKind
		build  scheduleBuilder
	}{
		{"acoustic", AcousticOneBlock, acousticSchedule},
		{"expanded", AcousticFourBlock, expandedSchedule},
		{"elastic", ElasticFourBlock, elasticSchedule},
		{"maxwell", ElasticFourBlock, maxwellSchedule},
	}
	for _, tc := range schedules {
		for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
			sc := tc.build(NewCompiler(Plan{}, 4, flux))
			name := tc.name + "/" + flux.String()
			if sc.slots != tc.layout.SlotsPerElement() {
				t.Errorf("%s: %d slots, layout has %d", name, sc.slots, tc.layout.SlotsPerElement())
			}
			inSlots := func(what string, slot int) {
				if slot < 0 || slot >= sc.slots {
					t.Errorf("%s: %s slot %d outside [0,%d)", name, what, slot, sc.slots)
				}
			}
			fits := func(what string, col, words int) {
				if words < 1 || col < 0 || col+words > xbar.WordsPerRow {
					t.Errorf("%s: %s columns [%d,%d) outside a %d-word row", name, what, col, col+words, xbar.WordsPerRow)
				}
			}
			phases := append(append([]schedPhase(nil), sc.rhs...), sc.integ[:]...)
			for _, ph := range phases {
				if (ph.progs == nil) == (len(ph.moves) == 0) {
					t.Errorf("%s: phase %q must be either moves or programs", name, ph.name)
				}
				if ph.progs != nil && len(ph.progs) != sc.slots {
					t.Errorf("%s: phase %q has %d programs for %d slots", name, ph.name, len(ph.progs), sc.slots)
				}
				for _, mv := range ph.moves {
					if mv.face < intraMove || mv.face >= mesh.NumFaces {
						t.Errorf("%s: phase %q moves across face %d", name, ph.name, mv.face)
					}
					inSlots(ph.name+" source", mv.src)
					inSlots(ph.name+" destination", mv.dst)
					fits(ph.name+" source", mv.srcCol, mv.words)
					fits(ph.name+" destination", mv.dstCol, mv.words)
				}
			}
			compute := map[int]bool{}
			for _, cs := range sc.compute {
				inSlots("compute", cs.slot)
				if compute[cs.slot] {
					t.Errorf("%s: compute slot %d listed twice", name, cs.slot)
				}
				compute[cs.slot] = true
			}
			type cell struct{ slot, col int }
			owner := map[cell]int{}
			for v, sv := range sc.vars {
				inSlots("variable", sv.slot)
				if !compute[sv.slot] {
					t.Errorf("%s: variable %d in slot %d, which loads no constants", name, v, sv.slot)
				}
				for s := range sc.integ {
					if sc.integ[s].progs[sv.slot] == nil {
						t.Errorf("%s: variable %d's slot %d does not integrate in stage %d", name, v, sv.slot, s)
					}
				}
				for _, col := range []int{sv.col, sv.aux} {
					fits("variable", col, 1)
					if w, taken := owner[cell{sv.slot, col}]; taken {
						t.Errorf("%s: variables %d and %d share slot %d column %d", name, w, v, sv.slot, col)
					}
					owner[cell{sv.slot, col}] = v
				}
			}
			for _, ph := range sc.rhs {
				for _, mv := range ph.moves {
					for w := 0; w < mv.words && mv.face != intraMove; w++ {
						if v, ok := owner[cell{mv.src, mv.srcCol + w}]; !ok || sc.vars[v].col != mv.srcCol+w {
							t.Errorf("%s: phase %q's face move reads slot %d column %d, which holds no state variable",
								name, ph.name, mv.src, mv.srcCol+w)
						}
					}
				}
			}
		}
	}
}

// TestTimedAndFunctionalDoSameWork ties the analytic timed runner to the
// functional system: with the layout forced to match and the timed run
// unpipelined, both paths must move the same words and issue the same
// instructions per element per RK stage, and — on every resident layout
// whose phases line up one to one — spend the same compute time per
// stage. The expanded acoustic layout is the exception for compute time:
// the functional schedule runs the three axis blocks' flux concurrently
// per sign (two flux phases), while the timed runner prices six face
// phases one after another. The batched rows fold a refine-3 mesh through
// a one-tile chip: a functional face move that crosses the batch boundary
// is a host write from the image, whose words count with the on-chip
// ones, and the functional load-batch and store-batch bytes must equal
// the state part of the timed runner's batch-swap charge.
func TestTimedAndFunctionalDoSameWork(t *testing.T) {
	cases := []struct {
		name          string
		eq            opcount.Equation
		layout        LayoutKind
		tech          Technique
		refine, tiles int // tiles > 0 pins a chip of that many tiles
		batches       int
		words, instrs int64 // per element per RK stage
		sameCompute   bool
	}{
		{"acoustic", opcount.Acoustic, AcousticOneBlock, Naive, 2, 0, 1, 1536, 297, true},
		{"expanded", opcount.Acoustic, AcousticFourBlock, ExpandParallel, 2, 0, 1, 5376, 315, false},
		{"elastic-central", opcount.ElasticCentral, ElasticFourBlock, ExpandRows, 2, 0, 1, 8448, 787, true},
		{"elastic-riemann", opcount.ElasticRiemann, ElasticFourBlock, ExpandRows, 2, 0, 1, 10752, 937, true},
		{"maxwell", opcount.Maxwell, ElasticFourBlock, ExpandRows, 2, 0, 1, 6144, 586, true},
		{"acoustic-batched", opcount.Acoustic, AcousticOneBlock, Naive | Batching, 3, 1, 2, 1536, 297, false},
		{"elastic-riemann-batched", opcount.ElasticRiemann, ElasticFourBlock, ExpandRows | Batching, 3, 1, 8, 10752, 937, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mesh.New(tc.refine, opcount.Np, true) // the timed runner fixes Np
			cfg, pin := chip.Config512MB(), []Option(nil)
			if tc.tiles > 0 {
				cfg = tilesChip(tc.tiles)
				pin = append(pin, WithChip(cfg))
			}
			plan, err := MakePlan(opcount.Benchmark{Eq: tc.eq, Refinement: tc.refine}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Batches != tc.batches {
				t.Fatalf("plan folds the mesh in %d batches, want %d", plan.Batches, tc.batches)
			}
			plan.Tech, plan.Layout, plan.SlotsPerElem = tc.tech, tc.layout, tc.layout.SlotsPerElement()
			timedSink := obs.NewSink()
			res, err := RunPlan(plan, Options{TimeSteps: 1, Morton: true, Obs: timedSink})
			if err != nil {
				t.Fatal(err)
			}

			var sys *system
			if tc.layout == AcousticFourBlock {
				fe, err := NewFunctionalAcousticExpanded(m, material.Acoustic{Kappa: 2.25, Rho: 1}, FluxFor(tc.eq), 1e-4)
				if err != nil {
					t.Fatal(err)
				}
				sys = fe.system
			} else {
				s, err := NewSession(append(pin, WithEquation(tc.eq), WithMesh(m), WithDt(1e-4))...)
				if err != nil {
					t.Fatal(err)
				}
				sys = s.sys
			}
			if sys.Comp.Flux != res.FluxType {
				t.Fatalf("functional flux %v, timed flux %v", sys.Comp.Flux, res.FluxType)
			}
			eng := sys.Engine
			funcSink := obs.NewSink()
			eng.Obs = funcSink
			sys.Step()

			if got := max(len(sys.batches), 1); got != tc.batches {
				t.Fatalf("functional system folds the mesh in %d batches, want %d", got, tc.batches)
			}
			// The timed runner prices one batch's stage; the functional step
			// runs every batch of every stage.
			timedPerElem := func(total int64) int64 { return total / int64(plan.ElemsPerBatch()) }
			funcPerElem := func(total int64) int64 { return total / int64(dg.NumStages*m.NumElem) }
			var hostWords int64 // per stage
			for _, b := range sys.batches {
				for _, p := range b.plan.rhs {
					for _, c := range p.host {
						hostWords += int64(len(c.vars))
					}
				}
			}
			timedWords := timedPerElem(timedSink.Counter("sim.transfer.words").Value())
			funcWords := funcPerElem(funcSink.Counter("sim.transfer.words").Value() + dg.NumStages*hostWords)
			timedInstrs := timedPerElem(res.InstrPerStage)
			funcInstrs := funcPerElem(eng.InstrCount)
			if timedWords != funcWords || funcWords != tc.words {
				t.Errorf("words per element-stage: timed %d, functional %d, want %d", timedWords, funcWords, tc.words)
			}
			if timedInstrs != funcInstrs || funcInstrs != tc.instrs {
				t.Errorf("instructions per element-stage: timed %d, functional %d, want %d", timedInstrs, funcInstrs, tc.instrs)
			}

			if tc.batches > 1 {
				nvars := int64(tc.eq.NumVars())
				stateBytes := int64(plan.ElemsPerBatch()*m.NodesPerEl) * nvars * 2 * 4 // run()'s batch-swap state
				sliceBytes := int64(plan.ElemsPerSlice*m.NodesPerEl) * nvars * 4
				loadStore := eng.DRAMBytes/dg.NumStages - 4*hostWords
				if want := 2 * stateBytes * int64(plan.Batches); loadStore != want {
					t.Errorf("load-batch + store-batch bytes per stage: functional %d, timed %d", loadStore, want)
				}
				t.Logf("boundary bytes per stage, functional (face nodes) / timed (whole slice): %.3f",
					float64(4*hostWords)/float64(sliceBytes*int64(plan.Batches)))
				t.Logf("per step, functional/timed clock %.2f", eng.Now()/res.StepSec)
				return
			}

			// The first stage's block phases, summed in timeline order as
			// run() sums the priced stage's compute, then scaled to the step
			// as run() scales it.
			var stageCompute, funcXfer float64
			for _, p := range eng.Timeline[:len(sys.plan.rhs)+1] {
				if p.Kind == "blocks" {
					stageCompute += p.Dur
				}
			}
			for _, p := range eng.Timeline {
				if p.Kind == "transfer" {
					funcXfer += p.Dur
				}
			}
			funcCompute := stageCompute * dg.NumStages
			if tc.sameCompute && funcCompute != res.Breakdown.ComputeSec {
				t.Errorf("compute seconds per step: timed %g, functional %g", res.Breakdown.ComputeSec, funcCompute)
			}
			timedXfer := res.Breakdown.IntraTransferSec + res.Breakdown.InterTransferSec
			t.Logf("per step, functional/timed: clock %.2f, compute %.2f, transfer %.1f",
				eng.Now()/res.StepSec, funcCompute/res.Breakdown.ComputeSec, funcXfer/timedXfer)
		})
	}
}
