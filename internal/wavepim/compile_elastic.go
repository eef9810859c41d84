package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// Elastic four-block (E_r) programs (Sections 5.1 and 6.2.2): the nine
// variables of an elastic element cannot fit one block's row budget, so
// they spread over a four-slot element:
//
//	Bd (slot 0): diagonal stress  sxx, syy, szz  (var0..2)
//	Bs (slot 1): shear stress     sxy, sxz, syz  (var0..2)
//	Bv (slot 2): velocity         vx, vy, vz     (var0..2)
//	Bb (slot 3): neighbor-data buffer (pipelining)
//
// Volume needs cross-block columns ("more inter-block memcpy will happen
// for Volume in the elastic wave simulation"): Bd and Bs receive the three
// velocity columns in remote0..2; Bv receives all six stress columns in
// remote0..5 (diag then shear).

// bvSigmaCol returns Bv's remote column holding sigma_{i,axis}.
func bvSigmaCol(i int, a mesh.Axis) int {
	type pair struct{ i, a int }
	m := map[pair]int{
		{0, 0}: ExColRemote + 0, {1, 1}: ExColRemote + 1, {2, 2}: ExColRemote + 2,
		{0, 1}: ExColRemote + 3, {1, 0}: ExColRemote + 3,
		{0, 2}: ExColRemote + 4, {2, 0}: ExColRemote + 4,
		{1, 2}: ExColRemote + 5, {2, 1}: ExColRemote + 5,
	}
	return m[pair{i, int(a)}]
}

// shearVar returns Bs's variable column index for the unordered pair
// (i, j), i != j: sxy=0, sxz=1, syz=2.
func shearVar(i, j int) int {
	if i > j {
		i, j = j, i
	}
	switch {
	case i == 0 && j == 1:
		return 0
	case i == 0 && j == 2:
		return 1
	default:
		return 2
	}
}

// otherAxes lists the two axes != a in ascending order.
func otherAxes(a mesh.Axis) [2]int {
	switch a {
	case mesh.AxisX:
		return [2]int{1, 2}
	case mesh.AxisY:
		return [2]int{0, 2}
	default:
		return [2]int{0, 1}
	}
}

// VolumeElasticDiag compiles Bd's Volume: the three normal-derivative dot
// products feeding 2mu*grad and the accumulated divergence scaled by
// lambda.
func (c *Compiler) VolumeElasticDiag() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstTwoMu, ExColConstB)
	b.bconst(RowScalarConsts, ConstOne, ExColConstC)
	for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
		b.distributeD(ExColD, a)
		b.dot(ExColRemote+int(a), ExColAcc, ExColTmp1, ExColTmp2, ExColD, a)
		b.mul(ExColContrib+int(a), ExColAcc, ExColConstB)
		if a == mesh.AxisX {
			b.mul(ExColAccDiv, ExColAcc, ExColConstC)
		} else {
			b.add(ExColAccDiv, ExColAccDiv, ExColAcc)
		}
	}
	b.bconst(RowScalarConsts, ConstLambda, ExColConstA)
	b.mul(ExColTmp1, ExColAccDiv, ExColConstA)
	for v := 0; v < 3; v++ {
		b.add(ExColContrib+v, ExColContrib+v, ExColTmp1)
	}
	return b.ins
}

// VolumeElasticShear compiles Bs's Volume: the six cross derivatives,
// grouped by derivative axis so each dshape distribution is reused.
func (c *Compiler) VolumeElasticShear() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstMu, ExColConstA)
	// derivAxis -> list of (velocity component, destination shear var).
	work := map[mesh.Axis][][2]int{
		mesh.AxisX: {{1, 0}, {2, 1}}, // dvy/dx -> sxy, dvz/dx -> sxz
		mesh.AxisY: {{0, 0}, {2, 2}}, // dvx/dy -> sxy, dvz/dy -> syz
		mesh.AxisZ: {{0, 1}, {1, 2}}, // dvx/dz -> sxz, dvy/dz -> syz
	}
	written := [3]bool{}
	for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
		b.distributeD(ExColD, a)
		for _, w := range work[a] {
			vComp, dst := w[0], w[1]
			b.dot(ExColRemote+vComp, ExColAcc, ExColTmp1, ExColTmp2, ExColD, a)
			if !written[dst] {
				b.mul(ExColContrib+dst, ExColAcc, ExColConstA)
				written[dst] = true
			} else {
				b.mul(ExColTmp1, ExColAcc, ExColConstA)
				b.add(ExColContrib+dst, ExColContrib+dst, ExColTmp1)
			}
		}
	}
	return b.ins
}

// VolumeElasticVel compiles Bv's Volume: the nine stress-divergence dot
// products (three per velocity component), scaled by the host-precomputed
// 1/rho.
func (c *Compiler) VolumeElasticVel() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstOne, ExColConstC)
	for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
		b.distributeD(ExColD, a)
		for i := 0; i < 3; i++ {
			b.dot(bvSigmaCol(i, a), ExColAcc, ExColTmp1, ExColTmp2, ExColD, a)
			if a == mesh.AxisX {
				b.mul(ExColContrib+i, ExColAcc, ExColConstC)
			} else {
				b.add(ExColContrib+i, ExColContrib+i, ExColAcc)
			}
		}
	}
	b.bconst(RowScalarConsts, ConstInvRho, ExColConstA)
	for i := 0; i < 3; i++ {
		b.mul(ExColContrib+i, ExColContrib+i, ExColConstA)
	}
	return b.ins
}

// Flux column conventions for the elastic element (per face):
//
//	Bd: nbr0 = neighbor v[a]; nbr1 = neighbor sigma_aa (Riemann only)
//	Bs: nbr0/nbr1 = neighbor v[j], j != a; D+1/D+2 = neighbor sigma_aj (R)
//	Bv: D+1..D+3 = neighbor sigma_ia; D+4..D+6 = neighbor v_i (R)
//
// Per-role flux constants (RowFluxConsts words 4f+k; each role's blocks
// hold their own values):
//
//	Bd: ca = s*lift*(lambda+2mu)/2, cb = s*lift*lambda/2,
//	    ca2 = lift*(lambda+2mu)/(2Zp), cb2 = lift*lambda/(2Zp)
//	Bs: cs = s*lift*mu/2, cs2 = lift*mu/(2Zs)
//	Bv: cv = s*lift/(2rho), cv2p = lift*Zp/(2rho), cv2s = lift*Zs/(2rho)

// FluxElasticDiag compiles Bd's flux work for one face.
func (c *Compiler) FluxElasticDiag(f mesh.Face) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, a, maskWord, ExColD)
	b.sub(ExColTmp1, ExColNbr0, ExColRemote+int(a)) // dv_a
	riemann := c.Flux == dg.RiemannFlux
	if riemann {
		b.sub(ExColTmp2, ExColNbr1, ExColVar0+int(a)) // dsigma_aa
	}
	// sigma_aa: ca*dv_a [+ ca2*dsigma_aa].
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA)
	b.mul(ExColAcc, ExColTmp1, ExColConstA)
	if riemann {
		b.bconst(RowFluxConsts, 4*int(f)+2, ExColConstB)
		b.mul(ExColAccDiv, ExColTmp2, ExColConstB)
		b.add(ExColAcc, ExColAcc, ExColAccDiv)
	}
	b.mul(ExColAcc, ExColAcc, ExColD)
	b.add(ExColContrib+int(a), ExColContrib+int(a), ExColAcc)
	// sigma_jj, j != a: cb*dv_a [+ cb2*dsigma_aa].
	b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstA)
	b.mul(ExColAcc, ExColTmp1, ExColConstA)
	if riemann {
		b.bconst(RowFluxConsts, 4*int(f)+3, ExColConstB)
		b.mul(ExColAccDiv, ExColTmp2, ExColConstB)
		b.add(ExColAcc, ExColAcc, ExColAccDiv)
	}
	b.mul(ExColAcc, ExColAcc, ExColD)
	for _, j := range otherAxes(a) {
		b.add(ExColContrib+j, ExColContrib+j, ExColAcc)
	}
	return b.ins
}

// FluxElasticShear compiles Bs's flux work for one face.
func (c *Compiler) FluxElasticShear(f mesh.Face) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, a, maskWord, ExColD)
	riemann := c.Flux == dg.RiemannFlux
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA)
	if riemann {
		b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstB)
	}
	for idx, j := range otherAxes(a) {
		sv := shearVar(int(a), j)
		b.sub(ExColTmp1, ExColNbr0+idx, ExColRemote+j) // dv_j
		b.mul(ExColAcc, ExColTmp1, ExColConstA)
		if riemann {
			b.sub(ExColTmp2, ExColD+1+idx, ExColVar0+sv) // dsigma_aj
			b.mul(ExColAccDiv, ExColTmp2, ExColConstB)
			b.add(ExColAcc, ExColAcc, ExColAccDiv)
		}
		b.mul(ExColAcc, ExColAcc, ExColD)
		b.add(ExColContrib+sv, ExColContrib+sv, ExColAcc)
	}
	return b.ins
}

// FluxElasticVel compiles Bv's flux work for one face.
func (c *Compiler) FluxElasticVel(f mesh.Face) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, a, maskWord, ExColD)
	riemann := c.Flux == dg.RiemannFlux
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA) // cv
	if riemann {
		b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstB) // cv2p
		b.bconst(RowFluxConsts, 4*int(f)+2, ExColConstC) // cv2s
	}
	for i := 0; i < 3; i++ {
		b.sub(ExColTmp1, ExColD+1+i, bvSigmaCol(i, a)) // dsigma_ia
		b.mul(ExColAcc, ExColTmp1, ExColConstA)
		if riemann {
			b.sub(ExColTmp2, ExColD+4+i, ExColVar0+i) // dv_i
			pen := ExColConstC
			if i == int(a) {
				pen = ExColConstB
			}
			b.mul(ExColAccDiv, ExColTmp2, pen)
			b.add(ExColAcc, ExColAcc, ExColAccDiv)
		}
		b.mul(ExColAcc, ExColAcc, ExColD)
		b.add(ExColContrib+i, ExColContrib+i, ExColAcc)
	}
	return b.ins
}

// IntegrationElastic compiles one LSRK stage for a three-variable block.
func (c *Compiler) IntegrationElastic(stage int) []isa.Instr {
	return c.integration(stage, 3, ExColVar0, ExColAux, ExColContrib,
		ExColTmp1, ExColConstA, ExColConstB)
}

// LoadElasticConstants writes the storage rows of one elastic block
// according to its role.
func (c *Compiler) LoadElasticConstants(b BlockWriter, m *mesh.Mesh, mat material.Elastic, dt float64, role BlockRole) {
	c.loadCommonConstants(b, m, dt)
	la, mu, rho := mat.Lambda, mat.Mu, mat.Rho
	lift := dg.NewOperator(m).Lift()
	b.SetFloat(RowScalarConsts, ConstLambda, float32(la))
	b.SetFloat(RowScalarConsts, ConstTwoMu, float32(2*mu))
	b.SetFloat(RowScalarConsts, ConstMu, float32(mu))
	b.SetFloat(RowScalarConsts, ConstInvRho, float32(1/rho))
	b.SetFloat(RowScalarConsts, ConstLift, float32(lift))
	b.SetFloat(RowScalarConsts, ConstZero, 0)
	b.SetFloat(RowScalarConsts, ConstOne, 1)
	zp, zs := mat.PImpedance(), mat.SImpedance()
	riemann := c.Flux == dg.RiemannFlux
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		s := float64(f.Sign())
		var k [4]float64
		switch role {
		case RoleStressDiag:
			k[0] = s * lift * (la + 2*mu) / 2
			k[1] = s * lift * la / 2
			if riemann {
				k[2] = lift * (la + 2*mu) / (2 * zp)
				k[3] = lift * la / (2 * zp)
			}
		case RoleStressShear:
			k[0] = s * lift * mu / 2
			if riemann {
				k[1] = lift * mu / (2 * zs)
			}
		case RoleVelocity:
			k[0] = s * lift / (2 * rho)
			if riemann {
				k[1] = lift * zp / (2 * rho)
				k[2] = lift * zs / (2 * rho)
			}
		}
		for i, v := range k {
			b.SetFloat(RowFluxConsts, 4*int(f)+i, float32(v))
		}
	}
}

// ---------------------------------------------------------------------------
// Elastic functional system
// ---------------------------------------------------------------------------

// FunctionalElastic executes the four-block elastic mapping functionally.
type FunctionalElastic struct {
	*system
	Mat material.Elastic
}

// Load writes constants and the initial state with the same material
// everywhere.
func (f *FunctionalElastic) Load(q *dg.ElasticState) {
	f.LoadField(q, material.UniformElastic(f.Mesh.NumElem, f.Mat))
}

// LoadField writes constants and state with per-element materials (layered
// solids cost nothing extra: each element's blocks hold their own
// material-derived constants).
func (f *FunctionalElastic) LoadField(q *dg.ElasticState, field *material.ElasticField) {
	f.loadConstants(allEqual(field.ByElem), func(e int, role BlockRole, b *xbar.Block) {
		f.Comp.LoadElasticConstants(b, f.Mesh, field.ByElem[e], f.Dt, role)
	})
	f.writeVars(q.Slices())
}

// ReadState extracts the variables.
func (f *FunctionalElastic) ReadState(q *dg.ElasticState) { f.readVars(q.Slices()) }

// elasticSchedule is the four-block elastic layout: the cross-block
// variable duplication (Figure 8's inter-block memcpy, heavier for
// elastic), Volume on all three compute blocks concurrently, then each
// face's neighbor fetch and Flux. Slot 3 is the neighbor buffer and runs
// nothing.
func elasticSchedule(c *Compiler) *layoutSchedule {
	const bd, bs, bv = 0, 1, 2
	riemann := c.Flux == dg.RiemannFlux
	sc := &layoutSchedule{
		slots: 4,
		vars: append(append(
			slotVars(bd, 3, ExColVar0, ExColAux),
			slotVars(bs, 3, ExColVar0, ExColAux)...),
			slotVars(bv, 3, ExColVar0, ExColAux)...),
		compute: []computeSlot{{bd, RoleStressDiag}, {bs, RoleStressShear}, {bv, RoleVelocity}},
	}
	var dup []colMove
	for v := 0; v < 3; v++ {
		dup = append(dup,
			colMove{intraMove, bv, ExColVar0 + v, bd, ExColRemote + v, 1},
			colMove{intraMove, bv, ExColVar0 + v, bs, ExColRemote + v, 1},
			colMove{intraMove, bd, ExColVar0 + v, bv, ExColRemote + v, 1},
			colMove{intraMove, bs, ExColVar0 + v, bv, ExColRemote + 3 + v, 1})
	}
	sc.rhs = []schedPhase{
		{name: "dup-vars", moves: dup},
		{name: "volume", progs: [][]isa.Instr{c.VolumeElasticDiag(), c.VolumeElasticShear(), c.VolumeElasticVel(), nil}},
	}

	for face := mesh.Face(0); face < mesh.NumFaces; face++ {
		a := int(face.Axis())
		var fetch []colMove
		move := func(src, srcCol, dst, dstCol int) {
			fetch = append(fetch, colMove{face, src, srcCol, dst, dstCol, 1})
		}
		move(bv, ExColVar0+a, bd, ExColNbr0)
		if riemann {
			move(bd, ExColVar0+a, bd, ExColNbr1)
		}
		for idx, j := range otherAxes(face.Axis()) {
			move(bv, ExColVar0+j, bs, ExColNbr0+idx)
			if riemann {
				move(bs, ExColVar0+shearVar(a, j), bs, ExColD+1+idx)
			}
		}
		for i := 0; i < 3; i++ {
			if i == a {
				move(bd, ExColVar0+i, bv, ExColD+1+i)
			} else {
				move(bs, ExColVar0+shearVar(i, a), bv, ExColD+1+i)
			}
			if riemann {
				move(bv, ExColVar0+i, bv, ExColD+4+i)
			}
		}
		sc.rhs = append(sc.rhs,
			schedPhase{name: fmt.Sprintf("flux-fetch-%v", face), moves: fetch},
			schedPhase{name: fmt.Sprintf("flux-%v", face), progs: [][]isa.Instr{
				c.FluxElasticDiag(face), c.FluxElasticShear(face), c.FluxElasticVel(face), nil}})
	}

	for s := range sc.integ {
		integ := c.IntegrationElastic(s)
		sc.integ[s] = schedPhase{name: "integration", progs: [][]isa.Instr{integ, integ, integ, nil}}
	}
	return sc
}
