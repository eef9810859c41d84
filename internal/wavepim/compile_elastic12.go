package wavepim

import (
	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
)

// Elastic twelve-block (E_r & E_p) programs: one variable per block, used
// when the chip has room to spare (Table 5's elastic level-4 cases on 8 GB
// and 16 GB). Each block computes only its own variable's contribution, so
// the Volume critical path drops from Bv's nine derivative dot products to
// three (Section 6.2.2: "The nine variables will be distributed to three
// or nine memory blocks"). These programs drive the timing model; their
// functional behaviour is the same arithmetic as the four-block programs
// the tests verify, re-partitioned.

// Volume12Diag compiles the Volume program of a single diagonal-stress
// block sigma_aa: the full divergence (three dot products over the fetched
// velocity columns in remote0..2) plus its own 2mu grad term.
func (c *Compiler) Volume12Diag(a mesh.Axis) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstOne, ExColConstC)
	for ax := mesh.AxisX; ax <= mesh.AxisZ; ax++ {
		b.distributeD(ExColD, ax)
		b.dot(ExColRemote+int(ax), ExColAcc, ExColTmp1, ExColTmp2, ExColD, ax)
		if ax == mesh.AxisX {
			b.mul(ExColAccDiv, ExColAcc, ExColConstC)
		} else {
			b.add(ExColAccDiv, ExColAccDiv, ExColAcc)
		}
		if ax == a {
			// Keep the own-axis derivative for the 2mu term.
			b.bconst(RowScalarConsts, ConstTwoMu, ExColConstB)
			b.mul(ExColContrib, ExColAcc, ExColConstB)
		}
	}
	b.bconst(RowScalarConsts, ConstLambda, ExColConstA)
	b.mul(ExColTmp1, ExColAccDiv, ExColConstA)
	b.add(ExColContrib, ExColContrib, ExColTmp1)
	return b.ins
}

// Volume12Shear compiles the Volume program of one shear block sigma_ij:
// two cross-derivative dot products.
func (c *Compiler) Volume12Shear(i, j int) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstMu, ExColConstA)
	// dv_i/dx_j
	b.distributeD(ExColD, mesh.Axis(j))
	b.dot(ExColRemote+0, ExColAcc, ExColTmp1, ExColTmp2, ExColD, mesh.Axis(j))
	b.mul(ExColContrib, ExColAcc, ExColConstA)
	// dv_j/dx_i
	b.distributeD(ExColD, mesh.Axis(i))
	b.dot(ExColRemote+1, ExColAcc, ExColTmp1, ExColTmp2, ExColD, mesh.Axis(i))
	b.mul(ExColTmp1, ExColAcc, ExColConstA)
	b.add(ExColContrib, ExColContrib, ExColTmp1)
	return b.ins
}

// Volume12Vel compiles the Volume program of one velocity block v_i: three
// stress-divergence dot products over the fetched sigma_i* columns
// (remote0 = sigma_ix, remote1 = sigma_iy, remote2 = sigma_iz).
func (c *Compiler) Volume12Vel() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowScalarConsts, ConstOne, ExColConstC)
	for ax := mesh.AxisX; ax <= mesh.AxisZ; ax++ {
		b.distributeD(ExColD, ax)
		b.dot(ExColRemote+int(ax), ExColAcc, ExColTmp1, ExColTmp2, ExColD, ax)
		if ax == mesh.AxisX {
			b.mul(ExColContrib, ExColAcc, ExColConstC)
		} else {
			b.add(ExColContrib, ExColContrib, ExColAcc)
		}
	}
	b.bconst(RowScalarConsts, ConstInvRho, ExColConstA)
	b.mul(ExColContrib, ExColContrib, ExColConstA)
	return b.ins
}

// Flux12Var compiles a single-variable flux program for one face: one or
// two penalty channels on the fetched jump columns, masked and accumulated
// into the block's lone contribution column. riemannChannels is 1 for the
// central flux and 2 for the Riemann flux.
func (c *Compiler) Flux12Var(f mesh.Face) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	b.pattern(RowMaskBase, a, maskWord, ExColD)
	b.sub(ExColTmp1, ExColNbr0, ExColRemote+0)
	b.bconst(RowFluxConsts, 4*int(f)+0, ExColConstA)
	b.mul(ExColAcc, ExColTmp1, ExColConstA)
	if c.Flux == dg.RiemannFlux {
		b.sub(ExColTmp2, ExColNbr1, ExColVar0)
		b.bconst(RowFluxConsts, 4*int(f)+1, ExColConstB)
		b.mul(ExColAccDiv, ExColTmp2, ExColConstB)
		b.add(ExColAcc, ExColAcc, ExColAccDiv)
	}
	b.mul(ExColAcc, ExColAcc, ExColD)
	b.add(ExColContrib, ExColContrib, ExColAcc)
	return b.ins
}
