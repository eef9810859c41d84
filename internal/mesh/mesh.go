// Package mesh builds the structured hexahedral meshes used by the dG wave
// solver. A mesh at refinement level n discretizes the unit-cube problem
// domain into (2^n)^3 equal hexahedral elements (Table 1: "Refinement Level
// n indicates the problem domain is discretized into (2^n)^3 elements").
// Each element carries an (Np)^3 tensor-product grid of GLL nodes.
package mesh

import (
	"fmt"

	"wavepim/internal/quad"
)

// Axis identifies one of the three coordinate directions.
type Axis int

const (
	AxisX Axis = iota
	AxisY
	AxisZ
)

func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	case AxisZ:
		return "z"
	}
	return fmt.Sprintf("Axis(%d)", int(a))
}

// Face identifies one of an element's six faces by axis and normal sign.
type Face int

const (
	FaceXMinus Face = iota
	FaceXPlus
	FaceYMinus
	FaceYPlus
	FaceZMinus
	FaceZPlus
	NumFaces
)

// Axis returns the axis the face is perpendicular to.
func (f Face) Axis() Axis { return Axis(f / 2) }

// Sign returns -1 for the minus face, +1 for the plus face.
func (f Face) Sign() int {
	if f%2 == 0 {
		return -1
	}
	return 1
}

// Opposite returns the face with the same axis and the opposite sign.
func (f Face) Opposite() Face { return f ^ 1 }

func (f Face) String() string {
	s := "-"
	if f.Sign() > 0 {
		s = "+"
	}
	return f.Axis().String() + s
}

// Mesh is a structured hex mesh of the unit cube.
type Mesh struct {
	Refinement int        // refinement level n
	EPerAxis   int        // 2^n elements along each axis
	NumElem    int        // EPerAxis^3
	Np         int        // GLL nodes per axis within an element
	NodesPerEl int        // Np^3
	Rule       *quad.Rule // 1-D GLL rule on [-1,1]
	H          float64    // element edge length (1 / EPerAxis)
	Periodic   bool       // wrap neighbors across the domain boundary
}

// MaxRefinement is the deepest refinement level New accepts.
const MaxRefinement = 10

// Check reports whether New accepts a refinement level and node count;
// callers taking either from outside input check it before building.
func Check(refinement, np int) error {
	if refinement < 0 || refinement > MaxRefinement {
		return fmt.Errorf("mesh: refinement level %d out of range [0,%d]", refinement, MaxRefinement)
	}
	if np < 2 {
		return fmt.Errorf("mesh: need np >= 2 nodes per axis, got %d", np)
	}
	return nil
}

// New builds a mesh at the given refinement level with np GLL nodes per
// axis. The paper's benchmarks use np = 8 (512 nodes per element). It
// panics on arguments Check rejects.
func New(refinement, np int, periodic bool) *Mesh {
	if err := Check(refinement, np); err != nil {
		panic(err.Error())
	}
	e := 1 << refinement
	return &Mesh{
		Refinement: refinement,
		EPerAxis:   e,
		NumElem:    e * e * e,
		Np:         np,
		NodesPerEl: np * np * np,
		Rule:       quad.New(np),
		H:          1 / float64(e),
		Periodic:   periodic,
	}
}

// ElemID converts element lattice coordinates to a linear element id.
// Ordering is x fastest, then y, then z — so a fixed-z "slice" (the unit of
// the paper's Flux batching, Figure 7) is contiguous.
func (m *Mesh) ElemID(ex, ey, ez int) int {
	return (ez*m.EPerAxis+ey)*m.EPerAxis + ex
}

// ElemCoords inverts ElemID.
func (m *Mesh) ElemCoords(id int) (ex, ey, ez int) {
	ex = id % m.EPerAxis
	id /= m.EPerAxis
	ey = id % m.EPerAxis
	ez = id / m.EPerAxis
	return
}

// Neighbor returns the element id adjacent across the given face, and
// whether such a neighbor exists. With a periodic mesh every face has a
// neighbor; otherwise boundary faces return ok=false.
func (m *Mesh) Neighbor(id int, f Face) (nid int, ok bool) {
	ex, ey, ez := m.ElemCoords(id)
	d := f.Sign()
	switch f.Axis() {
	case AxisX:
		ex += d
	case AxisY:
		ey += d
	case AxisZ:
		ez += d
	}
	if m.Periodic {
		w := m.EPerAxis
		ex, ey, ez = (ex+w)%w, (ey+w)%w, (ez+w)%w
		return m.ElemID(ex, ey, ez), true
	}
	if ex < 0 || ey < 0 || ez < 0 || ex >= m.EPerAxis || ey >= m.EPerAxis || ez >= m.EPerAxis {
		return -1, false
	}
	return m.ElemID(ex, ey, ez), true
}

// NodeIndex converts within-element node lattice coordinates (i along x,
// j along y, k along z, each in [0,Np)) to a linear node index.
func (m *Mesh) NodeIndex(i, j, k int) int {
	return (k*m.Np+j)*m.Np + i
}

// NodeCoords inverts NodeIndex.
func (m *Mesh) NodeCoords(n int) (i, j, k int) {
	i = n % m.Np
	n /= m.Np
	j = n % m.Np
	k = n / m.Np
	return
}

// NodePosition returns the physical coordinates of node n of element id.
func (m *Mesh) NodePosition(id, n int) (x, y, z float64) {
	ex, ey, ez := m.ElemCoords(id)
	i, j, k := m.NodeCoords(n)
	// Map reference [-1,1] to the element extent.
	x = (float64(ex) + (m.Rule.Points[i]+1)/2) * m.H
	y = (float64(ey) + (m.Rule.Points[j]+1)/2) * m.H
	z = (float64(ez) + (m.Rule.Points[k]+1)/2) * m.H
	return
}

// FaceNodes returns the linear node indices of the Np^2 nodes lying on the
// given face, ordered so that index f*Np+g walks the two in-face axes in
// ascending axis order. The matching nodes of the neighbor across that face
// are FaceNodes(f.Opposite()) in the same order — a property the flux kernel
// and the PIM layout both rely on.
func (m *Mesh) FaceNodes(f Face) []int {
	idx := make([]int, 0, m.Np*m.Np)
	fixed := 0
	if f.Sign() > 0 {
		fixed = m.Np - 1
	}
	switch f.Axis() {
	case AxisX:
		for k := 0; k < m.Np; k++ {
			for j := 0; j < m.Np; j++ {
				idx = append(idx, m.NodeIndex(fixed, j, k))
			}
		}
	case AxisY:
		for k := 0; k < m.Np; k++ {
			for i := 0; i < m.Np; i++ {
				idx = append(idx, m.NodeIndex(i, fixed, k))
			}
		}
	case AxisZ:
		for j := 0; j < m.Np; j++ {
			for i := 0; i < m.Np; i++ {
				idx = append(idx, m.NodeIndex(i, j, fixed))
			}
		}
	}
	return idx
}

// JacobianScale returns d(reference)/d(physical) = 2/H, the constant
// geometric factor of the affine structured elements (the "jacobian"
// constants of Table 1 collapse to powers of this for a uniform mesh).
func (m *Mesh) JacobianScale() float64 { return 2 / m.H }

// JacobianDet is the determinant of the reference-to-physical map,
// (H/2)^3 — Table 1's jacobian_det_domain.
func (m *Mesh) JacobianDet() float64 { return (m.H / 2) * (m.H / 2) * (m.H / 2) }

// Slice returns the element ids of z-slice s (all elements with ez == s),
// the decomposition unit for Flux batching (Figure 7).
func (m *Mesh) Slice(s int) []int {
	if s < 0 || s >= m.EPerAxis {
		panic(fmt.Sprintf("mesh: slice %d out of range [0,%d)", s, m.EPerAxis))
	}
	n := m.EPerAxis * m.EPerAxis
	ids := make([]int, n)
	base := s * n
	for i := range ids {
		ids[i] = base + i
	}
	return ids
}

// NumSlices returns the number of z-slices (EPerAxis).
func (m *Mesh) NumSlices() int { return m.EPerAxis }
