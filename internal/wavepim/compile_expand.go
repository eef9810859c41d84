package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
)

// Acoustic four-block (E_p) programs, Figures 8 and 9: the computations of
// pressure and velocity are distributed to four blocks (one for p, three
// for v), processed in parallel, "with an overhead of data duplication and
// inter-block data movement".
//
// Role column usage (Ex* layout):
//
//	P-block:  var0 = p; remote0..2 receive the three div-v pieces;
//	          remote3..5 receive the three flux pressure pieces.
//	V-block a: var0 = v[a]; remote0 = duplicated p; remote1 accumulates
//	          this block's flux pressure piece; nbr0/nbr1 = neighbor p and
//	          neighbor v[a] face values.

// VolumeVBlock compiles the Volume work of velocity block a: grad p along
// a (feeding its own velocity contribution) and the axis-a piece of div v
// (left in accDiv for the transfer to the P-block).
func (c *Compiler) VolumeVBlock(a mesh.Axis) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.distributeD(ExColD, a)
	b.dot(ExColRemote+0, ExColAcc, ExColTmp1, ExColTmp2, ExColD, a)
	b.bconst(RowScalarConsts, ConstNegInvRho, ExColConstA)
	b.mul(ExColContrib, ExColAcc, ExColConstA)
	b.dot(ExColVar0, ExColAccDiv, ExColTmp1, ExColTmp2, ExColD, a)
	return b.ins
}

// VolumePBlock compiles the Volume work of the pressure block: sum the
// three div pieces and scale by -kappa ("jacobian_det_w_star has to be
// calculated four times and ... div_v has to be transferred across blocks",
// Section 6.2.1).
func (c *Compiler) VolumePBlock() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.add(ExColTmp1, ExColRemote+0, ExColRemote+1)
	b.add(ExColTmp1, ExColTmp1, ExColRemote+2)
	b.bconst(RowScalarConsts, ConstNegKappa, ExColConstA)
	b.mul(ExColContrib, ExColTmp1, ExColConstA)
	return b.ins
}

// FluxVBlock compiles the Flux work of velocity block a for one of its two
// faces. first marks the block's first face of the stage (the pressure
// piece accumulator is overwritten rather than accumulated).
func (c *Compiler) FluxVBlock(f mesh.Face, first bool) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, a, maskWord, ExColD)
	// dV = v[a] - nbr v[a]; dP = p(copy) - nbr p.
	b.sub(ExColTmp1, ExColVar0, ExColNbr1)
	b.sub(ExColTmp2, ExColRemote+0, ExColNbr0)
	// Pressure piece: mask * (c1*dV [+ c2*dP]) accumulated in remote1.
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA)
	b.mul(ExColAcc, ExColTmp1, ExColConstA)
	if c.Flux == dg.RiemannFlux {
		b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstB)
		b.mul(ExColAccDiv, ExColTmp2, ExColConstB)
		b.add(ExColAcc, ExColAcc, ExColAccDiv)
	}
	b.mul(ExColAcc, ExColAcc, ExColD)
	if first {
		b.bconst(RowScalarConsts, ConstZero, ExColConstB)
		b.mul(ExColRemote+1, ExColRemote+1, ExColConstB) // clear accumulator
	}
	b.add(ExColRemote+1, ExColRemote+1, ExColAcc)
	// Own velocity contribution: mask * (c3*dP [+ c4*dV]).
	b.bconst(RowFluxConsts, 4*int(f)+2, ExColConstA)
	b.mul(ExColAcc, ExColTmp2, ExColConstA)
	if c.Flux == dg.RiemannFlux {
		b.bconst(RowFluxConsts, 4*int(f)+3, ExColConstB)
		b.mul(ExColAccDiv, ExColTmp1, ExColConstB)
		b.add(ExColAcc, ExColAcc, ExColAccDiv)
	}
	b.mul(ExColAcc, ExColAcc, ExColD)
	b.add(ExColContrib, ExColContrib, ExColAcc)
	return b.ins
}

// FluxPBlockGather adds the three collected flux pressure pieces into the
// pressure contribution.
func (c *Compiler) FluxPBlockGather() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.add(ExColContrib, ExColContrib, ExColRemote+3)
	b.add(ExColContrib, ExColContrib, ExColRemote+4)
	b.add(ExColContrib, ExColContrib, ExColRemote+5)
	return b.ins
}

// IntegrationExpanded compiles one LSRK stage for a single-variable block
// of the expanded layout.
func (c *Compiler) IntegrationExpanded(stage int) []isa.Instr {
	return c.integration(stage, 1, ExColVar0, ExColAux, ExColContrib,
		ExColTmp1, ExColConstA, ExColConstB)
}

// ---------------------------------------------------------------------------
// Expanded functional system
// ---------------------------------------------------------------------------

// NewFunctionalAcousticExpanded builds the functional acoustic system on
// the four-block E_p layout, verifying the expansion technique end to end.
// Its step plan is built per system, not cached: PlanKey has no layout
// dimension to tell it apart from the one-block plan.
func NewFunctionalAcousticExpanded(m *mesh.Mesh, mat material.Acoustic, flux dg.FluxType, dt float64) (*FunctionalAcoustic, error) {
	cfg, err := chipFor(m.NumElem * 4)
	if err != nil {
		return nil, err
	}
	plan := Plan{Tech: ExpandParallel, Layout: AcousticFourBlock, SlotsPerElem: 4}
	sys, err := newSystem(cfg, m, flux, dt, plan, nil, expandedSchedule)
	if err != nil {
		return nil, err
	}
	return &FunctionalAcoustic{system: sys, Mat: mat}, nil
}

// expandedSchedule is the four-block E_p acoustic layout: slot 0 holds p,
// slot 1+a holds v[a].
func expandedSchedule(c *Compiler) *layoutSchedule {
	sc := &layoutSchedule{
		slots:   4,
		vars:    []schedVar{{0, ExColVar0, ExColAux}, {1, ExColVar0, ExColAux}, {2, ExColVar0, ExColAux}, {3, ExColVar0, ExColAux}},
		compute: []computeSlot{{0, RoleAcoustic}, {1, RoleAcoustic}, {2, RoleAcoustic}, {3, RoleAcoustic}},
	}
	var dup, div, pieces []colMove
	for a := 0; a < 3; a++ {
		dup = append(dup, colMove{intraMove, 0, ExColVar0, 1 + a, ExColRemote + 0, 1})
		div = append(div, colMove{intraMove, 1 + a, ExColAccDiv, 0, ExColRemote + a, 1})
		pieces = append(pieces, colMove{intraMove, 1 + a, ExColRemote + 1, 0, ExColRemote + 3 + a, 1})
	}
	// Duplicate p into the velocity blocks, run the three axes' Volume in
	// parallel, then ship the div pieces to the pressure block and combine.
	sc.rhs = []schedPhase{
		{name: "dup-p", moves: dup},
		{name: "volume-v", progs: [][]isa.Instr{nil, c.VolumeVBlock(mesh.AxisX), c.VolumeVBlock(mesh.AxisY), c.VolumeVBlock(mesh.AxisZ)}},
		{name: "div-pieces", moves: div},
		{name: "volume-p", progs: [][]isa.Instr{c.VolumePBlock(), nil, nil, nil}},
	}
	// Flux: two sign phases; within each, the three axis blocks work in
	// parallel (Figure 9).
	for signIdx := 0; signIdx < 2; signIdx++ {
		var fetch []colMove
		progs := make([][]isa.Instr, 4)
		for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
			face, slot := mesh.Face(2*int(a)+signIdx), 1+int(a)
			fetch = append(fetch,
				colMove{face, 0, ExColVar0, slot, ExColNbr0, 1},
				colMove{face, slot, ExColVar0, slot, ExColNbr1, 1})
			progs[slot] = c.FluxVBlock(face, signIdx == 0)
		}
		sc.rhs = append(sc.rhs,
			schedPhase{name: fmt.Sprintf("flux-fetch-%d", signIdx), moves: fetch},
			schedPhase{name: fmt.Sprintf("flux-%d", signIdx), progs: progs})
	}
	sc.rhs = append(sc.rhs,
		schedPhase{name: "flux-p-pieces", moves: pieces},
		schedPhase{name: "flux-p-gather", progs: [][]isa.Instr{c.FluxPBlockGather(), nil, nil, nil}})
	for s := range sc.integ {
		integ := c.IntegrationExpanded(s)
		sc.integ[s] = schedPhase{name: "integration", progs: [][]isa.Instr{integ, integ, integ, integ}}
	}
	return sc
}
