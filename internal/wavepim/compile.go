package wavepim

import (
	"fmt"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
)

// Storage-row map (the "Storage" half of Figure 5's block). The host loads
// these once per run (and re-uses them across batches: Figure 6's step 1
// is skipped after the first batch).
const (
	// RowDshapeBase + i holds row i of the differentiation matrix,
	// pre-scaled by the geometric Jacobian 2/H, one coefficient per word.
	RowDshapeBase = 512
	// RowMaskBase + i holds face-indicator words: word 0 = 1 iff i == 0
	// (minus faces), word 1 = 1 iff i == Np-1 (plus faces).
	RowMaskBase = 540
	// RowScalarConsts holds material/scheme scalars (Const* words).
	RowScalarConsts = 560
	// RowFluxConsts holds the four per-face flux coefficients c1..c4 at
	// words 4*face..4*face+3. These embed 1/Z (or 1/Zp, 1/Zs) factors the
	// host precomputes with its sqrt/inverse units (Section 4.3).
	RowFluxConsts = 561
	// RowRK holds the five LSRK A coefficients (words 0-4), the five B
	// coefficients (words 5-9), and dt (word 10).
	RowRK = 562
)

// Compiler lowers the dG kernels onto PIM instruction streams for one
// plan. Np is the nodes-per-axis of the element (8 for the paper's
// benchmarks; tests use smaller elements).
type Compiler struct {
	Plan Plan
	Np   int
	Flux dg.FluxType
}

// MinNp and MaxNp bound the GLL nodes per axis a compiler accepts: an
// element needs two nodes per axis, and MaxNp^3 fills the compute rows
// below RowDshapeBase.
const (
	MinNp = 2
	MaxNp = 8
)

// NewCompiler builds a compiler. Np^3 must fit the block's compute rows.
func NewCompiler(p Plan, np int, flux dg.FluxType) *Compiler {
	if np < MinNp || np > MaxNp {
		panic(fmt.Sprintf("wavepim: np=%d outside supported range [%d,%d]", np, MinNp, MaxNp))
	}
	if np*np*np > RowDshapeBase {
		panic("wavepim: element does not fit the compute row region")
	}
	return &Compiler{Plan: p, Np: np, Flux: flux}
}

func (c *Compiler) nn() int { return c.Np * c.Np * c.Np }

// ---------------------------------------------------------------------------
// Program builder helpers
// ---------------------------------------------------------------------------

type progBuilder struct {
	np, nn int
	ins    []isa.Instr
}

func (b *progBuilder) pattern(baseRow int, axis mesh.Axis, srcOff, dstOff int) {
	stride := 1
	for i := 0; i < int(axis); i++ {
		stride *= b.np
	}
	b.ins = append(b.ins, isa.Instr{Op: isa.OpPattern, Row: baseRow,
		RowStart: 0, RowCount: b.nn, SrcOff: srcOff, DstOff: dstOff,
		Stride: stride, GroupSize: b.np})
}

func (b *progBuilder) gbcast(srcOff, dstOff int, axis mesh.Axis, m int) {
	stride := 1
	for i := 0; i < int(axis); i++ {
		stride *= b.np
	}
	b.ins = append(b.ins, isa.Instr{Op: isa.OpGroupBcast,
		RowStart: 0, RowCount: b.nn, SrcOff: srcOff, DstOff: dstOff,
		Stride: stride, GroupSize: b.np, GroupIdx: m})
}

func (b *progBuilder) arith(op isa.Opcode, dst, src, src2 int) {
	b.ins = append(b.ins, isa.Instr{Op: op, RowStart: 0, RowCount: b.nn,
		DstOff: dst, SrcOff: src, Src2Off: src2})
}

func (b *progBuilder) mul(dst, src, src2 int) { b.arith(isa.OpMul, dst, src, src2) }
func (b *progBuilder) add(dst, src, src2 int) { b.arith(isa.OpAdd, dst, src, src2) }
func (b *progBuilder) sub(dst, src, src2 int) { b.arith(isa.OpSub, dst, src, src2) }

// bconst broadcasts one scalar constant from a storage row into a full
// column.
func (b *progBuilder) bconst(row, srcOff, dstOff int) {
	b.ins = append(b.ins, isa.Instr{Op: isa.OpBroadcast, Row: row,
		RowStart: 0, RowCount: b.nn, SrcOff: srcOff, DstOff: dstOff, WordCount: 1})
}

// dot emits the tensor-product dot product along axis: acc = sum_m
// Dcol[m] * GroupBcast_m(u), using tmp1/tmp2 as scratch and the dcols
// distributed pattern columns. The caller must have distributed the
// pattern columns for this axis.
func (b *progBuilder) dot(u, acc, tmp1, tmp2, dcols int, axis mesh.Axis) {
	for m := 0; m < b.np; m++ {
		b.gbcast(u, tmp1, axis, m)
		if m == 0 {
			b.mul(acc, tmp1, dcols)
		} else {
			b.mul(tmp2, tmp1, dcols+m)
			b.add(acc, acc, tmp2)
		}
	}
}

// distributeD emits the per-axis dshape distribution (Figure 5's constant
// distribution step): np OpPattern instructions.
func (b *progBuilder) distributeD(dcols int, axis mesh.Axis) {
	for m := 0; m < b.np; m++ {
		b.pattern(RowDshapeBase, axis, m, dcols+m)
	}
}

// ---------------------------------------------------------------------------
// Acoustic one-block programs (Figure 5)
// ---------------------------------------------------------------------------

// VolumeOneBlock compiles the acoustic Volume kernel for the naive layout:
// grad p feeds the velocity contributions, div v feeds the pressure
// contribution.
func (c *Compiler) VolumeOneBlock() []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
		b.distributeD(AcColD, a)
		// grad p along a -> contrib_v[a] = -1/rho * dp/da.
		b.dot(AcColP, AcColAcc, AcColTmp1, AcColTmp2, AcColD, a)
		b.bconst(RowScalarConsts, ConstNegInvRho, AcColConstA)
		b.mul(AcColContrib+1+int(a), AcColAcc, AcColConstA)
		// d v[a]/da accumulates into the div register.
		if a == mesh.AxisX {
			b.dot(AcColVX+int(a), AcColAccDiv, AcColTmp1, AcColTmp2, AcColD, a)
		} else {
			b.dot(AcColVX+int(a), AcColAcc, AcColTmp1, AcColTmp2, AcColD, a)
			b.add(AcColAccDiv, AcColAccDiv, AcColAcc)
		}
	}
	b.bconst(RowScalarConsts, ConstNegKappa, AcColConstA)
	b.mul(AcColContrib+0, AcColAccDiv, AcColConstA)
	return b.ins
}

// FluxOneBlock compiles the acoustic Flux kernel for one face. The
// neighbor's four variable words must already sit in columns
// AcColNbrP..AcColNbrP+3 at this element's face rows (the fetch is a
// separate transfer phase, which pipelining overlaps with Volume).
func (c *Compiler) FluxOneBlock(f mesh.Face) []isa.Instr {
	b := &progBuilder{np: c.Np, nn: c.nn()}
	a := f.Axis()
	maskWord := 0
	if f.Sign() > 0 {
		maskWord = 1
	}
	nbrV := AcColNbrP + 1 + int(a)
	b.pattern(RowMaskBase, a, maskWord, AcColD) // face mask into D slot 0
	// dV = v[a] - nbr v[a]; dP = p - nbr p.
	b.sub(AcColTmp1, AcColVX+int(a), nbrV)
	b.sub(AcColTmp2, AcColP, AcColNbrP)
	// Pressure contribution: mask * (c1*dV [+ c2*dP]).
	b.bconst(RowFluxConsts, 4*int(f)+0, AcColConstA)
	b.mul(AcColAcc, AcColTmp1, AcColConstA)
	if c.Flux == dg.RiemannFlux {
		b.bconst(RowFluxConsts, 4*int(f)+1, AcColConstB)
		b.mul(AcColAccDiv, AcColTmp2, AcColConstB)
		b.add(AcColAcc, AcColAcc, AcColAccDiv)
	}
	b.mul(AcColAcc, AcColAcc, AcColD)
	b.add(AcColContrib+0, AcColContrib+0, AcColAcc)
	// Velocity contribution: mask * (c3*dP [+ c4*dV]).
	b.bconst(RowFluxConsts, 4*int(f)+2, AcColConstA)
	b.mul(AcColAcc, AcColTmp2, AcColConstA)
	if c.Flux == dg.RiemannFlux {
		b.bconst(RowFluxConsts, 4*int(f)+3, AcColConstB)
		b.mul(AcColAccDiv, AcColTmp1, AcColConstB)
		b.add(AcColAcc, AcColAcc, AcColAccDiv)
	}
	b.mul(AcColAcc, AcColAcc, AcColD)
	b.add(AcColContrib+1+int(a), AcColContrib+1+int(a), AcColAcc)
	return b.ins
}

// IntegrationOneBlock compiles one LSRK stage for the naive acoustic
// layout: aux = A_s*aux + dt*contrib; q += B_s*aux, per variable.
func (c *Compiler) IntegrationOneBlock(stage int) []isa.Instr {
	return c.integration(stage, 4, AcColP, AcColAux, AcColContrib,
		AcColTmp1, AcColConstA, AcColConstB)
}

// integration emits the generic Integration kernel over nv variables at
// the given column bases.
func (c *Compiler) integration(stage, nv, varCol, auxCol, contribCol, tmp, constA, constB int) []isa.Instr {
	if stage < 0 || stage >= dg.NumStages {
		panic(fmt.Sprintf("wavepim: stage %d out of range", stage))
	}
	b := &progBuilder{np: c.Np, nn: c.nn()}
	b.bconst(RowRK, stage, constA) // A_s
	b.bconst(RowRK, 10, constB)    // dt
	for v := 0; v < nv; v++ {
		b.mul(auxCol+v, auxCol+v, constA)
		b.mul(tmp, contribCol+v, constB)
		b.add(auxCol+v, auxCol+v, tmp)
	}
	b.bconst(RowRK, 5+stage, constA) // B_s
	for v := 0; v < nv; v++ {
		b.mul(tmp, auxCol+v, constA)
		b.add(varCol+v, varCol+v, tmp)
	}
	return b.ins
}

// ---------------------------------------------------------------------------
// Functional setup and extraction
// ---------------------------------------------------------------------------

// BlockLoader writes data into chip blocks; satisfied by *chip.Chip via a
// small adapter in the runner, and by test fakes.
type BlockWriter interface {
	SetFloat(row, off int, v float32)
	GetFloat(row, off int) float32
	SetWord(row, off int, w uint32)
}

// loadCommonConstants writes the storage rows every layout's compute
// blocks share: the differentiation matrix pre-scaled by the Jacobian
// 2/H, the face-mask indicator rows, and the RK table with dt.
func (c *Compiler) loadCommonConstants(b BlockWriter, m *mesh.Mesh, dt float64) {
	for i := 0; i < c.Np; i++ {
		for j := 0; j < c.Np; j++ {
			b.SetFloat(RowDshapeBase+i, j, float32(m.Rule.D[i][j]*m.JacobianScale()))
		}
		b.SetFloat(RowMaskBase+i, 0, boolToF(i == 0))
		b.SetFloat(RowMaskBase+i, 1, boolToF(i == c.Np-1))
	}
	for s := 0; s < dg.NumStages; s++ {
		b.SetFloat(RowRK, s, float32(dg.LSRK5A[s]))
		b.SetFloat(RowRK, 5+s, float32(dg.LSRK5B[s]))
	}
	b.SetFloat(RowRK, 10, float32(dt))
}

// LoadAcousticConstants writes the storage-row constants of one element's
// block: the shared rows of loadCommonConstants, then the material scalars
// and per-face flux coefficients. dt is the time step.
func (c *Compiler) LoadAcousticConstants(b BlockWriter, m *mesh.Mesh, mat material.Acoustic, dt float64) {
	c.loadCommonConstants(b, m, dt)
	// Scalar constants.
	lift := dg.NewOperator(m).Lift()
	b.SetFloat(RowScalarConsts, ConstNegKappa, float32(-mat.Kappa))
	b.SetFloat(RowScalarConsts, ConstNegInvRho, float32(-1/mat.Rho))
	b.SetFloat(RowScalarConsts, ConstLift, float32(lift))
	b.SetFloat(RowScalarConsts, ConstZero, 0)
	b.SetFloat(RowScalarConsts, ConstOne, 1)
	// Per-face flux coefficients (the 1/Z factor is host-precomputed —
	// this is the sqrt/inverse offload of Section 4.3).
	z := mat.Impedance()
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		s := float64(f.Sign())
		c1 := s * lift * mat.Kappa / 2
		c3 := s * lift / (2 * mat.Rho)
		var c2, c4 float64
		if c.Flux == dg.RiemannFlux {
			c2 = -lift * mat.Kappa / (2 * z)
			c4 = -lift * z / (2 * mat.Rho)
		}
		b.SetFloat(RowFluxConsts, 4*int(f)+0, float32(c1))
		b.SetFloat(RowFluxConsts, 4*int(f)+1, float32(c2))
		b.SetFloat(RowFluxConsts, 4*int(f)+2, float32(c3))
		b.SetFloat(RowFluxConsts, 4*int(f)+3, float32(c4))
	}
}

func boolToF(v bool) float32 {
	if v {
		return 1
	}
	return 0
}

// ReadAcousticContrib reads the contribution (RHS) columns of element e.
func (c *Compiler) ReadAcousticContrib(b BlockWriter, rhs *dg.AcousticState, e int) {
	nn := c.nn()
	for n := 0; n < nn; n++ {
		rhs.P[e*nn+n] = float64(b.GetFloat(n, AcColContrib+0))
		for d := 0; d < 3; d++ {
			rhs.V[d][e*nn+n] = float64(b.GetFloat(n, AcColContrib+1+d))
		}
	}
}
