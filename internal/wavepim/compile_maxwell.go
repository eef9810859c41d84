package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
)

// The Maxwell extension's PIM mapping — the paper's Section 2.1 claim
// realized: "successful strategies ... can also be applied to the ...
// electromagnetic waves". Six variables split across a four-slot element
// exactly like the elastic E_r layout:
//
//	E-block (slot 0): Ex, Ey, Ez (var0..2); remote0..2 = H copies
//	H-block (slot 1): Hx, Hy, Hz;           remote0..2 = E copies
//	slot 2: neighbor buffer, slot 3: spare
//
// Volume is six curl dot products per block (the Bs shear structure with
// Levi-Civita signs); Flux decomposes into two acoustic-analogue
// tangential channels per face, reusing the acoustic coefficient pattern
// with kappa -> 1/eps, rho -> mu, Z -> eta.

// curlWork[d] lists, for derivative axis d, the (source component,
// destination component, sign) triples of a curl: d/dx_d src contributes
// sign * to (curl F)_dst.
var curlWork = [3][2][3]int{
	// axis x: dFz/dx -> -(curl)_y ; dFy/dx -> +(curl)_z
	{{2, 1, -1}, {1, 2, +1}},
	// axis y: dFz/dy -> +(curl)_x ; dFx/dy -> -(curl)_z
	{{2, 0, +1}, {0, 2, -1}},
	// axis z: dFy/dz -> -(curl)_x ; dFx/dz -> +(curl)_y
	{{1, 0, -1}, {0, 1, +1}},
}

// VolumeMaxwell compiles one block's Volume: the curl of the *other*
// field (resident in remote0..2) scaled by +1/eps (E-block) or -1/mu
// (H-block).
func (c *Compiler) VolumeMaxwell(eBlock bool) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	posConst, negConst := ConstInvEps, ConstNegInvEps
	if !eBlock {
		// dH/dt = -(1/mu) curl E: the signs flip wholesale.
		posConst, negConst = ConstNegInvMu, ConstInvMu
	}
	b.bconst(RowScalarConsts, posConst, ExColConstA)
	b.bconst(RowScalarConsts, negConst, ExColConstB)
	written := [3]bool{}
	for d := mesh.AxisX; d <= mesh.AxisZ; d++ {
		b.distributeD(ExColD, d)
		for _, w := range curlWork[d] {
			src, dst, sign := w[0], w[1], w[2]
			b.dot(ExColRemote+src, ExColAcc, ExColTmp1, ExColTmp2, ExColD, d)
			cc := ExColConstA
			if sign < 0 {
				cc = ExColConstB
			}
			if !written[dst] {
				b.mul(ExColContrib+dst, ExColAcc, cc)
				written[dst] = true
			} else {
				b.mul(ExColTmp1, ExColAcc, cc)
				b.add(ExColContrib+dst, ExColContrib+dst, ExColTmp1)
			}
		}
	}
	return b.ins
}

// Per-face flux constants (RowFluxConsts words 4f+k), per role:
//
//	E-block: c1 = s*lift/(2 eps), c2 = -lift/(2 eps eta)   [c2: Riemann]
//	H-block: c3 = s*lift/(2 mu),  c4 = -lift*eta/(2 mu)    [c4: Riemann]
//
// Channel 1 couples (E_b, H_c) with +; channel 2 couples (E_c, H_b) with
// the Levi-Civita flip, realized by subtracting instead of adding the
// flipped term.

// FluxMaxwell compiles one block's flux work for one face. Neighbor data
// columns: nbr0/nbr1 = neighbor E_b/E_c, D+1/D+2 = neighbor H_b/H_c (both
// blocks use the same fetch layout; each uses what it needs).
func (c *Compiler) FluxMaxwell(f mesh.Face, eBlock bool) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := int(f.Axis())
	bb, cc := (a+1)%3, (a+2)%3
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, f.Axis(), maskWord, ExColD)
	riemann := c.Flux == dg.RiemannFlux
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA)
	if riemann {
		b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstB)
	}
	// Jumps: own values minus neighbor values. Own E lives locally on the
	// E-block and in remote0..2 on the H-block (and vice versa).
	ownE, ownH := ExColVar0, ExColRemote
	if !eBlock {
		ownE, ownH = ExColRemote, ExColVar0
	}
	dEb, dEc := ExColTmp1, ExColTmp2
	b.sub(dEb, ownE+bb, ExColNbr0)
	b.sub(dEc, ownE+cc, ExColNbr1)
	dHb, dHc := ExColAccDiv, ExColAcc // scratch reuse; consumed before overwrite
	b.sub(dHb, ownH+bb, ExColD+1)
	b.sub(dHc, ownH+cc, ExColD+2)

	acc := ExColD + 3 // free D slot as flux accumulator
	if eBlock {
		// E_b += mask*(c1*dHc [+ c2*dEb])
		b.mul(acc, dHc, ExColConstA)
		if riemann {
			b.mul(ExColD+4, dEb, ExColConstB)
			b.add(acc, acc, ExColD+4)
		}
		b.mul(acc, acc, ExColD)
		b.add(ExColContrib+bb, ExColContrib+bb, acc)
		// E_c += mask*(-c1*dHb [+ c2*dEc]) : subtract the flipped term.
		b.mul(acc, dHb, ExColConstA)
		if riemann {
			b.mul(ExColD+4, dEc, ExColConstB)
			b.sub(acc, acc, ExColD+4) // c1*dHb - c2*dEc; subtracted below
		}
		b.mul(acc, acc, ExColD)
		b.sub(ExColContrib+cc, ExColContrib+cc, acc)
	} else {
		// H_c += mask*(c3*dEb [+ c4*dHc])
		b.mul(acc, dEb, ExColConstA)
		if riemann {
			b.mul(ExColD+4, dHc, ExColConstB)
			b.add(acc, acc, ExColD+4)
		}
		b.mul(acc, acc, ExColD)
		b.add(ExColContrib+cc, ExColContrib+cc, acc)
		// H_b += mask*(-c3*dEc [+ c4*dHb])
		b.mul(acc, dEc, ExColConstA)
		if riemann {
			b.mul(ExColD+4, dHb, ExColConstB)
			b.sub(acc, acc, ExColD+4)
		}
		b.mul(acc, acc, ExColD)
		b.sub(ExColContrib+bb, ExColContrib+bb, acc)
	}
	return b.ins
}

// LoadMaxwellConstants writes one block's storage rows.
func (c *Compiler) LoadMaxwellConstants(b BlockWriter, m *mesh.Mesh, mat material.Dielectric, dt float64, eBlock bool) {
	op := dg.NewOperator(m)
	for i := 0; i < c.Np; i++ {
		for j := 0; j < c.Np; j++ {
			b.SetFloat(RowDshapeBase+i, j, float32(m.Rule.D[i][j]*m.JacobianScale()))
		}
		b.SetFloat(RowMaskBase+i, 0, boolToF(i == 0))
		b.SetFloat(RowMaskBase+i, 1, boolToF(i == c.Np-1))
	}
	lift := op.Lift()
	eta := mat.Impedance()
	b.SetFloat(RowScalarConsts, ConstInvEps, float32(1/mat.Eps))
	b.SetFloat(RowScalarConsts, ConstNegInvEps, float32(-1/mat.Eps))
	b.SetFloat(RowScalarConsts, ConstInvMu, float32(1/mat.Mu))
	b.SetFloat(RowScalarConsts, ConstNegInvMu, float32(-1/mat.Mu))
	b.SetFloat(RowScalarConsts, ConstZero, 0)
	b.SetFloat(RowScalarConsts, ConstOne, 1)
	riemann := c.Flux == dg.RiemannFlux
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		s := float64(f.Sign())
		var k [4]float64
		if eBlock {
			k[0] = s * lift / (2 * mat.Eps)
			if riemann {
				k[1] = -lift / (2 * mat.Eps * eta)
			}
		} else {
			k[0] = s * lift / (2 * mat.Mu)
			if riemann {
				k[1] = -lift * eta / (2 * mat.Mu)
			}
		}
		for i, v := range k {
			b.SetFloat(RowFluxConsts, 4*int(f)+i, float32(v))
		}
	}
	for s := 0; s < dg.NumStages; s++ {
		b.SetFloat(RowRK, s, float32(dg.LSRK5A[s]))
		b.SetFloat(RowRK, 5+s, float32(dg.LSRK5B[s]))
	}
	b.SetFloat(RowRK, 10, float32(dt))
}

// FunctionalMaxwell executes the Maxwell mapping functionally (four-slot
// elements, two compute blocks each).
type FunctionalMaxwell struct {
	*system
	Mat material.Dielectric
}

// Load writes constants and the initial state.
func (f *FunctionalMaxwell) Load(q *dg.MaxwellState) {
	for e := 0; e < f.Mesh.NumElem; e++ {
		ex, ey, ez := f.Mesh.ElemCoords(e)
		base := f.Place.ElemSlot(ex, ey, ez)
		f.Comp.LoadMaxwellConstants(f.Engine.Chip.Block(base), f.Mesh, f.Mat, f.Dt, true)
		f.Comp.LoadMaxwellConstants(f.Engine.Chip.Block(base+1), f.Mesh, f.Mat, f.Dt, false)
	}
	f.writeVars(q.Slices())
}

// ReadState extracts the fields.
func (f *FunctionalMaxwell) ReadState(q *dg.MaxwellState) { f.readVars(q.Slices()) }

// maxwellStepPlan compiles the Maxwell time-step: cross-block field
// duplication, Volume on both compute blocks, then each face's neighbor
// fetch and Flux. E lives in slot 0 of each element, H in slot 1.
func maxwellStepPlan(c *Compiler, m *mesh.Mesh, place *Placement) *stepPlan {
	nn := m.NodesPerEl
	eBlocks := make([]int, m.NumElem)
	hBlocks := make([]int, m.NumElem)
	for e := range eBlocks {
		ex, ey, ez := m.ElemCoords(e)
		eBlocks[e] = place.ElemSlot(ex, ey, ez)
		hBlocks[e] = eBlocks[e] + 1
	}
	p := &stepPlan{vars: append(
		columnVars(eBlocks, 3, ExColVar0, ExColAux),
		columnVars(hBlocks, 3, ExColVar0, ExColAux)...)}

	volE := c.VolumeMaxwell(true)
	volH := c.VolumeMaxwell(false)
	var dup []sim.RowTransfer
	volProgs := make(map[int][]isa.Instr, 2*m.NumElem)
	for e := 0; e < m.NumElem; e++ {
		eb, hb := eBlocks[e], hBlocks[e]
		volProgs[eb] = volE
		volProgs[hb] = volH
		for v := 0; v < 3; v++ {
			dup = append(dup, columnTransfer(hb, eb, ExColVar0+v, ExColRemote+v, nn)...)
			dup = append(dup, columnTransfer(eb, hb, ExColVar0+v, ExColRemote+v, nn)...)
		}
	}
	p.rhs = append(p.rhs, phase{name: "dup-fields", transfers: dup}, phase{name: "volume", progs: volProgs})

	for face := mesh.Face(0); face < mesh.NumFaces; face++ {
		a := int(face.Axis())
		bb, cc := (a+1)%3, (a+2)%3
		myRows := m.FaceNodes(face)
		nbRows := m.FaceNodes(face.Opposite())
		fluxE := c.FluxMaxwell(face, true)
		fluxH := c.FluxMaxwell(face, false)
		var fetch []sim.RowTransfer
		fluxProgs := make(map[int][]isa.Instr, 2*m.NumElem)
		move := func(srcBlk, srcOff, dstBlk, dstOff int) {
			for g := range myRows {
				fetch = append(fetch, sim.RowTransfer{
					SrcBlock: srcBlk, SrcRow: nbRows[g], SrcOff: srcOff,
					DstBlock: dstBlk, DstRow: myRows[g], DstOff: dstOff, Words: 1})
			}
		}
		for e := 0; e < m.NumElem; e++ {
			nb, _ := m.Neighbor(e, face)
			for _, dst := range []int{eBlocks[e], hBlocks[e]} {
				move(eBlocks[nb], ExColVar0+bb, dst, ExColNbr0)
				move(eBlocks[nb], ExColVar0+cc, dst, ExColNbr1)
				move(hBlocks[nb], ExColVar0+bb, dst, ExColD+1)
				move(hBlocks[nb], ExColVar0+cc, dst, ExColD+2)
			}
			fluxProgs[eBlocks[e]] = fluxE
			fluxProgs[hBlocks[e]] = fluxH
		}
		p.rhs = append(p.rhs,
			phase{name: fmt.Sprintf("flux-fetch-%v", face), transfers: fetch},
			phase{name: fmt.Sprintf("flux-%v", face), progs: fluxProgs})
	}

	for s := range p.integ {
		integ := c.IntegrationElastic(s) // three variables per block
		progs := make(map[int][]isa.Instr, 2*m.NumElem)
		for e := 0; e < m.NumElem; e++ {
			progs[eBlocks[e]] = integ
			progs[hBlocks[e]] = integ
		}
		p.integ[s] = phase{name: "integration", progs: progs}
	}
	return p
}
