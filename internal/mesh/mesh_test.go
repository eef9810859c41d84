package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRefinementElementCounts(t *testing.T) {
	// Table 1 / Table 6: level n has (2^n)^3 elements; level 4 -> 4096,
	// level 5 -> 32768.
	cases := []struct{ level, want int }{
		{0, 1}, {1, 8}, {2, 64}, {3, 512}, {4, 4096}, {5, 32768},
	}
	for _, c := range cases {
		m := New(c.level, 8, false)
		if m.NumElem != c.want {
			t.Errorf("level %d: NumElem=%d want %d", c.level, m.NumElem, c.want)
		}
	}
}

func TestNodesPerElement(t *testing.T) {
	m := New(2, 8, false)
	if m.NodesPerEl != 512 {
		t.Errorf("NodesPerEl=%d want 512 (the paper's 512-node element)", m.NodesPerEl)
	}
	if n := len(m.FaceNodes(FaceXMinus)); n != 64 {
		t.Errorf("%d nodes per face, want 64 (Figure 2: 6x64x32b)", n)
	}
}

func TestElemIDRoundTrip(t *testing.T) {
	m := New(3, 4, false)
	for id := 0; id < m.NumElem; id++ {
		ex, ey, ez := m.ElemCoords(id)
		if got := m.ElemID(ex, ey, ez); got != id {
			t.Fatalf("round trip failed: id=%d -> (%d,%d,%d) -> %d", id, ex, ey, ez, got)
		}
	}
}

func TestNodeIndexRoundTrip(t *testing.T) {
	m := New(1, 8, false)
	for n := 0; n < m.NodesPerEl; n++ {
		i, j, k := m.NodeCoords(n)
		if got := m.NodeIndex(i, j, k); got != n {
			t.Fatalf("round trip failed: n=%d -> (%d,%d,%d) -> %d", n, i, j, k, got)
		}
	}
}

func TestNeighborNonPeriodic(t *testing.T) {
	m := New(2, 4, false) // 4x4x4 elements
	// Interior element: all six neighbors exist.
	id := m.ElemID(1, 1, 1)
	for f := Face(0); f < NumFaces; f++ {
		nid, ok := m.Neighbor(id, f)
		if !ok {
			t.Errorf("interior element missing neighbor across %v", f)
		}
		// Neighbor-of-neighbor across the opposite face returns home.
		back, ok := m.Neighbor(nid, f.Opposite())
		if !ok || back != id {
			t.Errorf("face %v: neighbor round trip %d -> %d -> %d", f, id, nid, back)
		}
	}
	// Corner element: exactly three neighbors.
	corner := m.ElemID(0, 0, 0)
	var count int
	for f := Face(0); f < NumFaces; f++ {
		if _, ok := m.Neighbor(corner, f); ok {
			count++
		}
	}
	if count != 3 {
		t.Errorf("corner element has %d neighbors, want 3", count)
	}
}

func TestNeighborPeriodicWraps(t *testing.T) {
	m := New(2, 4, true)
	id := m.ElemID(0, 0, 0)
	nid, ok := m.Neighbor(id, FaceXMinus)
	if !ok {
		t.Fatal("periodic mesh returned no neighbor")
	}
	if want := m.ElemID(3, 0, 0); nid != want {
		t.Errorf("periodic x- neighbor of origin = %d, want %d", nid, want)
	}
}

// Property: in a periodic mesh, every element has exactly 6 neighbors and
// each neighbor relationship is mutual.
func TestNeighborSymmetryProperty(t *testing.T) {
	m := New(2, 3, true)
	f := func(rawID uint16, rawFace uint8) bool {
		id := int(rawID) % m.NumElem
		face := Face(rawFace % 6)
		nid, ok := m.Neighbor(id, face)
		if !ok {
			return false
		}
		back, ok := m.Neighbor(nid, face.Opposite())
		return ok && back == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFaceNodesMatchAcrossInterface(t *testing.T) {
	// Node g of FaceNodes(x+) of element e must coincide geometrically with
	// node g of FaceNodes(x-) of e's x+ neighbor.
	m := New(1, 5, false)
	id := m.ElemID(0, 1, 1)
	for f := Face(0); f < NumFaces; f++ {
		nid, ok := m.Neighbor(id, f)
		if !ok {
			continue
		}
		mine := m.FaceNodes(f)
		theirs := m.FaceNodes(f.Opposite())
		if len(mine) != m.Np*m.Np {
			t.Fatalf("face %v: %d nodes, want %d", f, len(mine), m.Np*m.Np)
		}
		for g := range mine {
			x1, y1, z1 := m.NodePosition(id, mine[g])
			x2, y2, z2 := m.NodePosition(nid, theirs[g])
			d := math.Abs(x1-x2) + math.Abs(y1-y2) + math.Abs(z1-z2)
			if d > 1e-12 {
				t.Errorf("face %v node %d: positions differ by %g", f, g, d)
			}
		}
	}
}

func TestFaceNodesAreOnFace(t *testing.T) {
	m := New(0, 6, false)
	for f := Face(0); f < NumFaces; f++ {
		want := 0
		if f.Sign() > 0 {
			want = m.Np - 1
		}
		for _, n := range m.FaceNodes(f) {
			i, j, k := m.NodeCoords(n)
			var got int
			switch f.Axis() {
			case AxisX:
				got = i
			case AxisY:
				got = j
			case AxisZ:
				got = k
			}
			if got != want {
				t.Errorf("face %v: node %d has lattice coord %d, want %d", f, n, got, want)
			}
		}
	}
}

func TestNodePositionsInsideDomain(t *testing.T) {
	m := New(2, 4, false)
	for _, id := range []int{0, 17, m.NumElem - 1} {
		for n := 0; n < m.NodesPerEl; n++ {
			x, y, z := m.NodePosition(id, n)
			for _, v := range []float64{x, y, z} {
				if v < -1e-12 || v > 1+1e-12 {
					t.Fatalf("elem %d node %d outside unit cube: (%g,%g,%g)", id, n, x, y, z)
				}
			}
		}
	}
}

func TestSliceDecomposition(t *testing.T) {
	m := New(2, 3, false)
	seen := make(map[int]bool)
	for s := 0; s < m.NumSlices(); s++ {
		for _, id := range m.Slice(s) {
			_, _, ez := m.ElemCoords(id)
			if ez != s {
				t.Errorf("slice %d contains element %d with ez=%d", s, id, ez)
			}
			if seen[id] {
				t.Errorf("element %d in two slices", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != m.NumElem {
		t.Errorf("slices cover %d elements, want %d", len(seen), m.NumElem)
	}
}

func TestJacobians(t *testing.T) {
	m := New(4, 8, false) // H = 1/16
	if got, want := m.JacobianScale(), 32.0; math.Abs(got-want) > 1e-15 {
		t.Errorf("JacobianScale=%g want %g", got, want)
	}
	if got, want := m.JacobianDet(), math.Pow(1.0/32, 3); math.Abs(got-want) > 1e-18 {
		t.Errorf("JacobianDet=%g want %g", got, want)
	}
}

func TestFaceHelpers(t *testing.T) {
	if FaceXPlus.Opposite() != FaceXMinus || FaceZMinus.Opposite() != FaceZPlus {
		t.Error("Opposite() wrong")
	}
	if FaceYMinus.Axis() != AxisY || FaceYMinus.Sign() != -1 || FaceYPlus.Sign() != 1 {
		t.Error("Axis/Sign wrong")
	}
	if FaceXMinus.String() != "x-" || FaceZPlus.String() != "z+" {
		t.Errorf("String() wrong: %q %q", FaceXMinus, FaceZPlus)
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, c := range []struct{ ref, np int }{{-1, 8}, {11, 8}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", c.ref, c.np)
				}
			}()
			New(c.ref, c.np, false)
		}()
	}
}
