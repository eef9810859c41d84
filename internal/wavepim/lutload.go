package wavepim

import (
	"math"

	"wavepim/internal/dg"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/xbar"
)

// LUT-served constant loading (Section 4.3): instead of the host writing
// material-derived values into every element block, the host precomputes
// them once (its sqrt/inverse units), stores them in a reserved look-up
// table block, and each element block fetches its own values with OpLUT
// instructions. The fetch uses Algorithm 1's in-place idiom: the host
// seeds each destination word with the LUT *index*, and the LUT
// instruction overwrites it with the fetched content (R_1 reads the index
// before W_1 writes the value, so in-place is safe).

// lutEntriesPerElem is the number of LUT-served words per acoustic
// element: 24 per-face flux coefficients plus the material scalars.
const (
	lutFluxEntries    = 24
	lutScalarEntries  = 4 // -kappa, -1/rho, lift*kappa, lift/rho slots
	lutEntriesPerElem = lutFluxEntries + lutScalarEntries
)

// lutScalarWords lists which RowScalarConsts words are LUT-served.
var lutScalarWords = [lutScalarEntries]int{ConstNegKappa, ConstNegInvRho, ConstLiftKappa, ConstLiftInvRho}

// acousticLUTValues computes one element's LUT-served constants in entry
// order (the host-side preprocessing the A72's sqrt/inverse units do).
func (c *Compiler) acousticLUTValues(m *mesh.Mesh, mat material.Acoustic) []float32 {
	op := dg.NewOperator(m)
	lift := op.Lift()
	z := mat.Impedance() // host sqrt
	vals := make([]float32, 0, lutEntriesPerElem)
	for f := mesh.Face(0); f < mesh.NumFaces; f++ {
		s := float64(f.Sign())
		c1 := s * lift * mat.Kappa / 2
		c3 := s * lift / (2 * mat.Rho) // host inverse
		var c2, c4 float64
		if c.Flux == dg.RiemannFlux {
			c2 = -lift * mat.Kappa / (2 * z) // host inverse of the sqrt
			c4 = -lift * z / (2 * mat.Rho)
		}
		vals = append(vals, float32(c1), float32(c2), float32(c3), float32(c4))
	}
	vals = append(vals,
		float32(-mat.Kappa), float32(-1/mat.Rho),
		float32(lift*mat.Kappa), float32(lift/mat.Rho))
	return vals
}

// lutFetchProgram builds the per-block OpLUT sequence: fetch the flux row
// and the scalar words in place.
func lutFetchProgram(lutBlock int) []isa.Instr {
	prog := make([]isa.Instr, 0, lutEntriesPerElem)
	for k := 0; k < lutFluxEntries; k++ {
		prog = append(prog, isa.Instr{Op: isa.OpLUT,
			Row: RowFluxConsts, SrcOff: k, DstOff: k, LUTBlock: lutBlock})
	}
	for _, w := range lutScalarWords {
		prog = append(prog, isa.Instr{Op: isa.OpLUT,
			Row: RowScalarConsts, SrcOff: w, DstOff: w, LUTBlock: lutBlock})
	}
	return prog
}

// LoadWithLUT loads the one-block acoustic system the Section 4.3 way:
// geometry constants (dshape, masks, RK table) are model constants written
// at setup, but every material-derived value is fetched from the reserved
// LUT block by OpLUT instructions executed on the chip. A test hook, on
// resident systems only.
func (f *FunctionalAcoustic) LoadWithLUT(q *dg.AcousticState, field *material.AcousticField) {
	m := f.Mesh
	lutBlock := m.NumElem // first block past the element blocks
	lut := f.Engine.Chip.Block(lutBlock)

	// Host fills the LUT with each element's precomputed constants.
	for e := 0; e < m.NumElem; e++ {
		vals := f.Comp.acousticLUTValues(m, field.ByElem[e])
		for k, v := range vals {
			entry := e*lutEntriesPerElem + k
			lut.SetFloat(entry/xbar.WordsPerRow, entry%xbar.WordsPerRow, v)
		}
	}

	progs := make(map[int][]isa.Instr, m.NumElem)
	prog := lutFetchProgram(lutBlock)
	for e, blk := range f.plan.vars[0].blocks {
		b := f.Engine.Chip.Block(blk)
		// Geometry constants as usual.
		f.Comp.LoadAcousticConstants(b, m, field.ByElem[e], f.Dt)
		// Scrub the material-derived words and seed them with LUT indices
		// instead (proving the subsequent values really come from the LUT).
		for k := 0; k < lutFluxEntries; k++ {
			b.SetWord(RowFluxConsts, k, uint32(e*lutEntriesPerElem+k))
		}
		for i, w := range lutScalarWords {
			b.SetWord(RowScalarConsts, w, uint32(e*lutEntriesPerElem+lutFluxEntries+i))
		}
		progs[blk] = prog
	}
	f.writeVars(q.Slices())
	// The chip fetches its own constants.
	f.Engine.Sequence(f.Engine.ExecBlocks("lut-consts", progs))
}

// VerifyLUTLoaded is a test hook: it checks one block's fetched constant
// against the direct computation.
func (f *FunctionalAcoustic) VerifyLUTLoaded(e int, field *material.AcousticField) bool {
	b := f.Engine.Chip.Block(f.plan.vars[0].blocks[e])
	vals := f.Comp.acousticLUTValues(f.Mesh, field.ByElem[e])
	for k := 0; k < lutFluxEntries; k++ {
		if b.GetFloat(RowFluxConsts, k) != vals[k] {
			return false
		}
	}
	for i, w := range lutScalarWords {
		if got := b.GetFloat(RowScalarConsts, w); got != vals[lutFluxEntries+i] &&
			!(math.IsNaN(float64(got)) && math.IsNaN(float64(vals[lutFluxEntries+i]))) {
			return false
		}
	}
	return true
}
