package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
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
	if f.Axis() == mesh.AxisX && false {
		panic("unreachable")
	}
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
	sys, err := newSystem(cfg, m, flux, dt, plan, nil, expandedStepPlan)
	if err != nil {
		return nil, err
	}
	return &FunctionalAcoustic{system: sys, Mat: mat}, nil
}

// columnTransfer builds per-row transfers copying a full column between two
// blocks.
func columnTransfer(src, dst, srcOff, dstOff, rows int) []sim.RowTransfer {
	out := make([]sim.RowTransfer, rows)
	for r := 0; r < rows; r++ {
		out[r] = sim.RowTransfer{SrcBlock: src, SrcRow: r, SrcOff: srcOff,
			DstBlock: dst, DstRow: r, DstOff: dstOff, Words: 1}
	}
	return out
}

// expandedStepPlan compiles the four-block E_p acoustic time-step.
func expandedStepPlan(c *Compiler, m *mesh.Mesh, place *Placement) *stepPlan {
	nn := m.NodesPerEl
	pres := blocksFor(m, place, RolePressure)
	var vel [3][]int
	for a, role := range []BlockRole{RoleVelX, RoleVelY, RoleVelZ} {
		vel[a] = blocksFor(m, place, role)
	}
	p := &stepPlan{vars: columnVars(pres, 1, ExColVar0, ExColAux)}
	for a := range vel {
		p.vars = append(p.vars, columnVars(vel[a], 1, ExColVar0, ExColAux)...)
	}

	// 1. Duplicate p into the velocity blocks.
	var dup []sim.RowTransfer
	for e := 0; e < m.NumElem; e++ {
		for a := range vel {
			dup = append(dup, columnTransfer(pres[e], vel[a][e], ExColVar0, ExColRemote+0, nn)...)
		}
	}
	// 2. Velocity-block Volume (all three axes in parallel).
	volV := make(map[int][]isa.Instr, 3*m.NumElem)
	for a := range vel {
		prog := c.VolumeVBlock(mesh.Axis(a))
		for e := 0; e < m.NumElem; e++ {
			volV[vel[a][e]] = prog
		}
	}
	// 3. Ship div pieces to the pressure block; combine there.
	var div []sim.RowTransfer
	volP := make(map[int][]isa.Instr, m.NumElem)
	volPProg := c.VolumePBlock()
	for e := 0; e < m.NumElem; e++ {
		for a := range vel {
			div = append(div, columnTransfer(vel[a][e], pres[e], ExColAccDiv, ExColRemote+a, nn)...)
		}
		volP[pres[e]] = volPProg
	}
	p.rhs = append(p.rhs,
		phase{name: "dup-p", transfers: dup},
		phase{name: "volume-v", progs: volV},
		phase{name: "div-pieces", transfers: div},
		phase{name: "volume-p", progs: volP})

	// 4. Flux: two sign phases; within each, the three axis blocks work
	// in parallel (Figure 9).
	for signIdx := 0; signIdx < 2; signIdx++ {
		var fetch []sim.RowTransfer
		progs := make(map[int][]isa.Instr, 3*m.NumElem)
		for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
			face := mesh.Face(2*int(a) + signIdx)
			myRows := m.FaceNodes(face)
			nbRows := m.FaceNodes(face.Opposite())
			prog := c.FluxVBlock(face, signIdx == 0)
			for e := 0; e < m.NumElem; e++ {
				nb, ok := m.Neighbor(e, face)
				if !ok {
					continue
				}
				dst := vel[a][e]
				for g := range myRows {
					fetch = append(fetch,
						sim.RowTransfer{SrcBlock: pres[nb], SrcRow: nbRows[g], SrcOff: ExColVar0,
							DstBlock: dst, DstRow: myRows[g], DstOff: ExColNbr0, Words: 1},
						sim.RowTransfer{SrcBlock: vel[a][nb], SrcRow: nbRows[g], SrcOff: ExColVar0,
							DstBlock: dst, DstRow: myRows[g], DstOff: ExColNbr1, Words: 1})
				}
				progs[dst] = prog
			}
		}
		p.rhs = append(p.rhs,
			phase{name: fmt.Sprintf("flux-fetch-%d", signIdx), transfers: fetch},
			phase{name: fmt.Sprintf("flux-%d", signIdx), progs: progs})
	}
	// Gather the pressure pieces.
	var gather []sim.RowTransfer
	gatherProgs := make(map[int][]isa.Instr, m.NumElem)
	gatherProg := c.FluxPBlockGather()
	for e := 0; e < m.NumElem; e++ {
		for a := range vel {
			gather = append(gather, columnTransfer(vel[a][e], pres[e], ExColRemote+1, ExColRemote+3+a, nn)...)
		}
		gatherProgs[pres[e]] = gatherProg
	}
	p.rhs = append(p.rhs,
		phase{name: "flux-p-pieces", transfers: gather},
		phase{name: "flux-p-gather", progs: gatherProgs})

	// 5. Integration on all four blocks in parallel.
	for s := range p.integ {
		integ := c.IntegrationExpanded(s)
		progs := make(map[int][]isa.Instr, 4*m.NumElem)
		for _, v := range p.vars {
			for _, blk := range v.blocks {
				progs[blk] = integ
			}
		}
		p.integ[s] = phase{name: "integration", progs: progs}
	}
	return p
}
