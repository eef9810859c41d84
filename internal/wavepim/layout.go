// Package wavepim is the paper's primary contribution: the mapping of
// discontinuous-Galerkin wave simulation onto the digital PIM system. It
// implements the single-element data layout and execution flow of Figure 5,
// the kernel compiler that turns the Volume / Flux / Integration kernels
// into PIM instruction streams, the batching (Section 6.1), expansion
// (Section 6.2) and pipelining (Section 6.3) techniques, the configuration
// planner reproducing Table 5, and the end-to-end runner used by the
// evaluation harness.
package wavepim

import (
	"fmt"

	"wavepim/internal/dg/opcount"
)

// Technique is the fitting technique of Table 5.
type Technique int

const (
	// Naive deploys one element per memory block (acoustic only).
	Naive Technique = 1 << iota
	// ExpandParallel is E_p: spread one element over more blocks to use
	// idle capacity for parallelism (Section 6.2.1).
	ExpandParallel
	// ExpandRows is E_r: the elastic system's nine variables exceed the 1K
	// row budget of one block, forcing a multi-block element (Section
	// 6.2.2, Section 5.1).
	ExpandRows
	// Batching folds a model too big for the chip through it in slices
	// (Section 6.1).
	Batching
)

// String renders the Table 5 notation (N, E_p, E_r, B and combinations).
func (t Technique) String() string {
	if t == Naive {
		return "N"
	}
	s := ""
	app := func(x string) {
		if s != "" {
			s += "&"
		}
		s += x
	}
	if t&ExpandRows != 0 {
		app("E_r")
	}
	if t&ExpandParallel != 0 {
		app("E_p")
	}
	if t&Batching != 0 {
		app("B")
	}
	if s == "" {
		return "?"
	}
	return s
}

// BlockRole names which constants a compute block of an element holds.
type BlockRole int

const (
	// RoleAcoustic is any acoustic compute block: the one block of a naive
	// element, and each of the four blocks of the expanded element
	// (Figures 8-9) alike.
	RoleAcoustic BlockRole = iota
	// RoleStressDiag, RoleStressShear and RoleVelocity are the elastic
	// element's three compute blocks.
	RoleStressDiag
	RoleStressShear
	RoleVelocity
	// RoleElectric and RoleMagnetic are the Maxwell element's E and H
	// blocks.
	RoleElectric
	RoleMagnetic
)

// LayoutKind selects one of the hand-mapped element data layouts.
type LayoutKind int

const (
	// AcousticOneBlock is Figure 5's layout: the whole 512-node acoustic
	// element in one 1Kx1K block.
	AcousticOneBlock LayoutKind = iota
	// AcousticFourBlock is the E_p layout of Figures 8-9 (p + 3 velocity
	// blocks; the pressure block doubles as the neighbor buffer).
	AcousticFourBlock
	// ElasticFourBlock is the E_r layout: diagonal stress, shear stress,
	// velocity, and a neighbor-buffer block.
	ElasticFourBlock
	// ElasticTwelveBlock is E_r & E_p: one variable per block (nine used,
	// three slots spare for buffering), aligned to fanout-4 groups.
	ElasticTwelveBlock
)

// SlotsPerElement returns how many consecutive block slots one element
// occupies (slots are aligned to the H-tree's fanout-4 groups so that an
// element's blocks share low-level switches, the locality argument of
// Section 4.2.1).
func (k LayoutKind) SlotsPerElement() int {
	switch k {
	case AcousticOneBlock:
		return 1
	case AcousticFourBlock, ElasticFourBlock:
		return 4
	case ElasticTwelveBlock:
		return 12
	}
	panic(fmt.Sprintf("wavepim: unknown layout %d", int(k)))
}

// ---------------------------------------------------------------------------
// Column maps (Figure 5's data layout within a block)
// ---------------------------------------------------------------------------

// Acoustic one-block column assignment. Rows [0, Np^3) are the computation
// space (one node per row, Figure 5); rows [512, 1024) hold constants.
// Within the 32 words of a row: variables, auxiliaries, contributions, and
// scratchpad, exactly as the figure lays them out.
const (
	AcColP       = 0  // variable p
	AcColVX      = 1  // variable vx
	AcColVY      = 2  // variable vy
	AcColVZ      = 3  // variable vz
	AcColAux     = 4  // auxiliaries: 4..7 (p, vx, vy, vz)
	AcColContrib = 8  // contributions: 8..11
	AcColTmp1    = 12 // scratch: group-broadcast target
	AcColTmp2    = 13 // scratch: product
	AcColAcc     = 14 // scratch: per-axis accumulator
	AcColAccDiv  = 15 // scratch: div v accumulator (persists across axes)
	AcColD       = 16 // 16..23: distributed dshape (or face-mask) columns
	AcColConstA  = 24 // broadcast constant slots
	AcColConstB  = 25
	AcColConstC  = 26
	AcColNbrP    = 27 // neighbor face values: p
	AcColNbrV    = 28 // neighbor face values: v (normal component)
	AcColSpare1  = 29
	AcColSpare2  = 30
	AcColSpare3  = 31
)

// Per-variable-group layout used by the expanded and elastic blocks: each
// compute block holds up to three variables plus the same scratch
// apparatus.
const (
	ExColVar0    = 0 // up to three variables
	ExColVar1    = 1
	ExColVar2    = 2
	ExColAux     = 3 // 3..5 auxiliaries
	ExColContrib = 6 // 6..8 contributions
	ExColTmp1    = 9
	ExColTmp2    = 10
	ExColAcc     = 11
	ExColAccDiv  = 12
	ExColD       = 13 // 13..20 dshape / mask columns
	ExColConstA  = 21
	ExColConstB  = 22
	ExColConstC  = 23
	ExColRemote  = 24 // 24..29: remote variable columns fetched per phase
	ExColNbr0    = 30 // neighbor face values
	ExColNbr1    = 31
)

// Constants storage rows (the second half of the block, Figure 5's
// "Storage" region). The host loads these once; per-stage distribution to
// the compute rows is charged by the compiler.
const (
	RowDshape    = 512 // rows 512..519: dshape rows D[m][*] pre-scaled by 2/H
	RowMaskFirst = 520 // [1,0,...,0] pattern row (minus-face masks)
	RowMaskLast  = 521 // [0,...,0,1] pattern row (plus-face masks)
	RowConsts    = 522 // material and scheme scalars, one per word
)

// Words within RowConsts.
const (
	ConstNegKappa   = iota // -kappa
	ConstNegInvRho         // -1/rho
	ConstLiftKappa         // lift * kappa
	ConstLiftInvRho        // lift / rho
	ConstHalf              // 0.5
	ConstHalfZ             // Z/2
	ConstHalfInvZ          // 1/(2Z)  (host-precomputed, LUT-served)
	ConstLambda            // lambda
	ConstTwoMu             // 2*mu
	ConstMu                // mu
	ConstInvRho            // 1/rho (host-precomputed, LUT-served)
	ConstLift              // lift factor
	ConstHalfZp            // Zp/2
	ConstHalfZs            // Zs/2
	ConstHalfInvZp         // 1/(2Zp) (host-precomputed, LUT-served)
	ConstHalfInvZs         // 1/(2Zs) (host-precomputed, LUT-served)
	ConstRKA               // A_s for the current stage
	ConstRKBdt             // B_s (written per stage)
	ConstDt                // dt
	ConstNegHalf           // -0.5
	ConstZero              // 0.0 (accumulator clearing)
	ConstOne               // 1.0 (copy-by-multiply)
	ConstInvEps            // 1/eps (Maxwell extension)
	ConstNegInvEps         // -1/eps
	ConstInvMu             // 1/mu
	ConstNegInvMu          // -1/mu
	NumConsts
)

// ---------------------------------------------------------------------------
// Element-to-block placement
// ---------------------------------------------------------------------------

// Morton3 interleaves the low 10 bits of x, y, z into a Morton (Z-order)
// code. Placing elements along the Morton curve keeps 3D mesh neighbors in
// nearby blocks, so most flux transfers stay inside low H-tree subtrees —
// the locality the interconnect design exploits.
func Morton3(x, y, z int) int {
	var m int
	for b := 0; b < 10; b++ {
		m |= (x>>b&1)<<(3*b) | (y>>b&1)<<(3*b+1) | (z>>b&1)<<(3*b+2)
	}
	return m
}

// morton2 interleaves the low 10 bits of x and y into a 2D Morton code.
func morton2(x, y int) int {
	var m int
	for b := 0; b < 10; b++ {
		m |= (x>>b&1)<<(2*b) | (y>>b&1)<<(2*b+1)
	}
	return m
}

// Placement maps the elements of a batch — ePerAxis^2 elements per
// z-slice, slices z-slices — to block slots.
type Placement struct {
	morton   bool // Morton order (default) versus row-major
	ePerAxis int  // elements per axis in x and y
	slices   int  // z-slices resident
	slotsPE  int
}

// NewPlacement builds a placement for a batch of slices z-slices of a mesh
// with ePerAxis elements per axis; slices == ePerAxis places the whole
// mesh.
func NewPlacement(kind LayoutKind, ePerAxis, slices int, morton bool) *Placement {
	return &Placement{morton: morton, ePerAxis: ePerAxis, slices: slices, slotsPE: kind.SlotsPerElement()}
}

// ElemSlot returns the first block ID of the element at batch-relative
// lattice position (ex, ey, ez). A whole resident mesh follows the Morton
// curve; a batch of fewer slices is slice-major with Morton order inside
// each slice, so slices stay contiguous for the Figure 7 schedule.
func (p *Placement) ElemSlot(ex, ey, ez int) int {
	var idx int
	switch {
	case !p.morton:
		idx = (ez*p.ePerAxis+ey)*p.ePerAxis + ex
	case p.slices == p.ePerAxis:
		idx = Morton3(ex, ey, ez)
	default:
		idx = ez*p.ePerAxis*p.ePerAxis + morton2(ex, ey)
	}
	return idx * p.slotsPE
}

// LayoutFor returns the layout kind implied by an equation and technique
// set.
func LayoutFor(eq opcount.Equation, t Technique) LayoutKind {
	elastic := eq != opcount.Acoustic
	switch {
	case elastic && t&ExpandParallel != 0:
		return ElasticTwelveBlock
	case elastic:
		return ElasticFourBlock
	case t&ExpandParallel != 0:
		return AcousticFourBlock
	default:
		return AcousticOneBlock
	}
}

// MaxBlockID returns the highest block id this placement can produce over
// the whole element lattice — the boundary above which the fault layer
// reserves spare blocks for remapping.
func (p *Placement) MaxBlockID() int {
	n := p.ePerAxis - 1
	return p.ElemSlot(n, n, p.slices-1) + p.slotsPE - 1
}
