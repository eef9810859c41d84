package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
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
	c.loadCommonConstants(b, m, dt)
	lift := dg.NewOperator(m).Lift()
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
}

// FunctionalMaxwell executes the Maxwell mapping functionally (four-slot
// elements, two compute blocks each).
type FunctionalMaxwell struct {
	*system
	Mat material.Dielectric
}

// Load writes constants and the initial state.
func (f *FunctionalMaxwell) Load(q *dg.MaxwellState) {
	f.loadConstants(true, func(_ int, role BlockRole, b *xbar.Block) {
		f.Comp.LoadMaxwellConstants(b, f.Mesh, f.Mat, f.Dt, role == RoleElectric)
	})
	f.writeVars(q.Slices())
}

// ReadState extracts the fields.
func (f *FunctionalMaxwell) ReadState(q *dg.MaxwellState) { f.readVars(q.Slices()) }

// maxwellSchedule is the Maxwell layout: cross-block field duplication,
// Volume on both compute blocks, then each face's neighbor fetch and Flux.
// E lives in slot 0 of each element, H in slot 1.
func maxwellSchedule(c *Compiler) *layoutSchedule {
	const eb, hb = 0, 1
	sc := &layoutSchedule{
		slots:   4,
		vars:    append(slotVars(eb, 3, ExColVar0, ExColAux), slotVars(hb, 3, ExColVar0, ExColAux)...),
		compute: []computeSlot{{eb, RoleElectric}, {hb, RoleMagnetic}},
	}
	var dup []colMove
	for v := 0; v < 3; v++ {
		dup = append(dup,
			colMove{intraMove, hb, ExColVar0 + v, eb, ExColRemote + v, 1},
			colMove{intraMove, eb, ExColVar0 + v, hb, ExColRemote + v, 1})
	}
	sc.rhs = []schedPhase{
		{name: "dup-fields", moves: dup},
		{name: "volume", progs: [][]isa.Instr{c.VolumeMaxwell(true), c.VolumeMaxwell(false), nil, nil}},
	}

	for face := mesh.Face(0); face < mesh.NumFaces; face++ {
		a := int(face.Axis())
		bb, cc := (a+1)%3, (a+2)%3
		var fetch []colMove
		for _, dst := range []int{eb, hb} {
			fetch = append(fetch,
				colMove{face, eb, ExColVar0 + bb, dst, ExColNbr0, 1},
				colMove{face, eb, ExColVar0 + cc, dst, ExColNbr1, 1},
				colMove{face, hb, ExColVar0 + bb, dst, ExColD + 1, 1},
				colMove{face, hb, ExColVar0 + cc, dst, ExColD + 2, 1})
		}
		sc.rhs = append(sc.rhs,
			schedPhase{name: fmt.Sprintf("flux-fetch-%v", face), moves: fetch},
			schedPhase{name: fmt.Sprintf("flux-%v", face), progs: [][]isa.Instr{
				c.FluxMaxwell(face, true), c.FluxMaxwell(face, false), nil, nil}})
	}

	for s := range sc.integ {
		integ := c.IntegrationElastic(s) // three variables per block
		sc.integ[s] = schedPhase{name: "integration", progs: [][]isa.Instr{integ, integ, nil, nil}}
	}
	return sc
}
