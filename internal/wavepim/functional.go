package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
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
	vars := f.plan.vars
	for e := 0; e < f.Mesh.NumElem; e++ {
		for v, loc := range vars {
			// On the one-block layout every variable shares p's block.
			if v > 0 && loc.blocks[e] == vars[0].blocks[e] {
				continue
			}
			f.Comp.LoadAcousticConstants(f.Engine.Chip.Block(loc.blocks[e]), f.Mesh, field.ByElem[e], f.Dt)
		}
	}
	f.writeVars(q.Slices())
}

// ReadState extracts the current variables into q.
func (f *FunctionalAcoustic) ReadState(q *dg.AcousticState) { f.readVars(q.Slices()) }

// ReadRHS extracts the contribution columns of the one-block layout into
// rhs.
func (f *FunctionalAcoustic) ReadRHS(rhs *dg.AcousticState) {
	for e, blk := range f.plan.vars[0].blocks {
		f.Comp.ReadAcousticContrib(f.Engine.Chip.Block(blk), rhs, e)
	}
}

// acousticStepPlan compiles the one-block acoustic time-step: Volume,
// then each face's neighbor fetch and Flux, on every element block.
func acousticStepPlan(c *Compiler, m *mesh.Mesh, place *Placement) *stepPlan {
	blocks := blocksFor(m, place, RoleAll)
	progsFor := func(prog []isa.Instr) map[int][]isa.Instr {
		out := make(map[int][]isa.Instr, len(blocks))
		for _, blk := range blocks {
			out[blk] = prog
		}
		return out
	}
	p := &stepPlan{vars: columnVars(blocks, 4, AcColP, AcColAux)}
	p.rhs = append(p.rhs, phase{name: "volume", progs: progsFor(c.VolumeOneBlock())})
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		p.rhs = append(p.rhs,
			phase{name: fmt.Sprintf("flux-fetch-%v", f), transfers: c.FluxTransfersOneBlock(m, place, f, true)},
			phase{name: fmt.Sprintf("flux-%v", f), progs: progsFor(c.FluxOneBlock(f))})
	}
	for s := range p.integ {
		p.integ[s] = phase{name: fmt.Sprintf("integration-%d", s), progs: progsFor(c.IntegrationOneBlock(s))}
	}
	return p
}
