package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// FunctionalAcoustic is the functional acoustic system: the one-block
// layout a Session builds, or the four-block expanded layout of
// NewFunctionalAcousticExpanded.
type FunctionalAcoustic struct {
	*system
	Mat material.Acoustic
}

// Load writes constants and the initial state into the chip, with the
// same material everywhere.
func (f *FunctionalAcoustic) Load(q *dg.AcousticState) {
	f.LoadField(q, material.UniformAcoustic(f.Mesh.NumElem, f.Mat))
}

// LoadField writes constants and state with per-element materials (the
// paper's model: "We consider constant materials within an element" —
// every element's blocks hold their own material-derived constants,
// which is what makes layered media free on the PIM side).
func (f *FunctionalAcoustic) LoadField(q *dg.AcousticState, field *material.AcousticField) {
	f.loadConstants(allEqual(field.ByElem), func(e int, _ BlockRole, b *xbar.Block) {
		f.Comp.LoadAcousticConstants(b, f.Mesh, field.ByElem[e], f.Dt)
	})
	f.writeVars(q.Slices())
}

// ReadState extracts the current variables into q.
func (f *FunctionalAcoustic) ReadState(q *dg.AcousticState) { f.readVars(q.Slices()) }

// ReadRHS extracts the contribution columns of the one-block layout into
// rhs. A test hook, on resident systems only.
func (f *FunctionalAcoustic) ReadRHS(rhs *dg.AcousticState) {
	for e, blk := range f.plan.vars[0].blocks {
		f.Comp.ReadAcousticContrib(f.Engine.Chip.Block(blk), rhs, e)
	}
}

// acousticSchedule is the one-block acoustic layout (Figure 5): Volume,
// then each face's neighbor fetch and Flux, all in the element's one
// block.
func acousticSchedule(c *Compiler) *layoutSchedule {
	sc := &layoutSchedule{
		slots:   1,
		vars:    slotVars(0, 4, AcColP, AcColAux),
		compute: []computeSlot{{0, RoleAcoustic}},
		rhs:     []schedPhase{{name: "volume", progs: [][]isa.Instr{c.VolumeOneBlock()}}},
	}
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		sc.rhs = append(sc.rhs,
			schedPhase{name: fmt.Sprintf("flux-fetch-%v", f), moves: []colMove{{f, 0, AcColP, 0, AcColNbrP, 4}}},
			schedPhase{name: fmt.Sprintf("flux-%v", f), progs: [][]isa.Instr{c.FluxOneBlock(f)}})
	}
	for s := range sc.integ {
		sc.integ[s] = schedPhase{name: fmt.Sprintf("integration-%d", s), progs: [][]isa.Instr{c.IntegrationOneBlock(s)}}
	}
	return sc
}
