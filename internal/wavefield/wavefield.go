// Package wavefield provides field sampling and output utilities for the
// wave solvers: uniform-grid snapshots of a nodal field, planar
// cross-sections, and ASCII art for quick looks. The examples use it to
// turn simulations into inspectable artifacts.
package wavefield

import (
	"fmt"
	"math"
	"strings"

	"wavepim/internal/mesh"
)

// Snapshot is a field sampled on a uniform nx x ny grid over a planar
// cross-section of the unit cube.
type Snapshot struct {
	Nx, Ny int
	Data   []float64 // row-major, Data[j*Nx+i]
	Label  string
}

// At returns the sample at (i, j).
func (s *Snapshot) At(i, j int) float64 { return s.Data[j*s.Nx+i] }

// MinMax returns the data range.
func (s *Snapshot) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range s.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// Plane identifies a cross-section: the fixed axis and its coordinate.
type Plane struct {
	Axis  mesh.Axis
	Coord float64
}

// Sample extracts a snapshot of the nodal field (one value per global
// node, NumElem*NodesPerEl long) on the plane, using nearest-node
// sampling: for each grid point, the value at the closest mesh node on
// the plane's containing element layer. Resolution nx x ny covers the
// two in-plane axes in [0,1].
func Sample(m *mesh.Mesh, field []float64, p Plane, nx, ny int) *Snapshot {
	if len(field) != m.NumElem*m.NodesPerEl {
		panic(fmt.Sprintf("wavefield: field has %d values, mesh has %d nodes",
			len(field), m.NumElem*m.NodesPerEl))
	}
	snap := &Snapshot{Nx: nx, Ny: ny, Data: make([]float64, nx*ny)}
	axA, axB := inPlaneAxes(p.Axis)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			var pos [3]float64
			pos[p.Axis] = clamp01(p.Coord)
			pos[axA] = (float64(i) + 0.5) / float64(nx)
			pos[axB] = (float64(j) + 0.5) / float64(ny)
			e, n := nearestNode(m, pos[0], pos[1], pos[2])
			snap.Data[j*nx+i] = field[e*m.NodesPerEl+n]
		}
	}
	return snap
}

func inPlaneAxes(a mesh.Axis) (mesh.Axis, mesh.Axis) {
	switch a {
	case mesh.AxisX:
		return mesh.AxisY, mesh.AxisZ
	case mesh.AxisY:
		return mesh.AxisX, mesh.AxisZ
	default:
		return mesh.AxisX, mesh.AxisY
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// nearestNode locates the element and node closest to (x, y, z) without a
// full scan: the element comes from the lattice, the node from per-axis
// nearest GLL points.
func nearestNode(m *mesh.Mesh, x, y, z float64) (elem, node int) {
	locate := func(c float64) (e int, local float64) {
		e = int(c * float64(m.EPerAxis))
		if e >= m.EPerAxis {
			e = m.EPerAxis - 1
		}
		// Map into the element's reference coordinate [-1, 1].
		local = (c-float64(e)*m.H)/m.H*2 - 1
		return
	}
	ex, rx := locate(x)
	ey, ry := locate(y)
	ez, rz := locate(z)
	ni := nearestPoint(m.Rule.Points, rx)
	nj := nearestPoint(m.Rule.Points, ry)
	nk := nearestPoint(m.Rule.Points, rz)
	return m.ElemID(ex, ey, ez), m.NodeIndex(ni, nj, nk)
}

func nearestPoint(pts []float64, r float64) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range pts {
		if d := math.Abs(p - r); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// ASCII renders the snapshot as terminal art with a symmetric diverging
// ramp around zero.
func (s *Snapshot) ASCII() string {
	ramp := []rune(" .:-=+*#%@")
	lo, hi := s.MinMax()
	amp := math.Max(math.Abs(lo), math.Abs(hi))
	if amp == 0 {
		amp = 1
	}
	var b strings.Builder
	for j := s.Ny - 1; j >= 0; j-- { // y axis upward
		for i := 0; i < s.Nx; i++ {
			v := math.Abs(s.At(i, j)) / amp
			idx := int(v * float64(len(ramp)-1))
			b.WriteRune(ramp[idx])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RMS returns the root-mean-square of the snapshot.
func (s *Snapshot) RMS() float64 {
	var sum float64
	for _, v := range s.Data {
		sum += v * v
	}
	return math.Sqrt(sum / float64(len(s.Data)))
}
