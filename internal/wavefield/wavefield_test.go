package wavefield

import (
	"math"
	"strings"
	"testing"

	"wavepim/internal/mesh"
)

// buildField fills a nodal field with f(x, y, z).
func buildField(m *mesh.Mesh, f func(x, y, z float64) float64) []float64 {
	out := make([]float64, m.NumElem*m.NodesPerEl)
	for e := 0; e < m.NumElem; e++ {
		for n := 0; n < m.NodesPerEl; n++ {
			x, y, z := m.NodePosition(e, n)
			out[e*m.NodesPerEl+n] = f(x, y, z)
		}
	}
	return out
}

func TestSampleRecoversSmoothField(t *testing.T) {
	m := mesh.New(2, 5, true)
	field := buildField(m, func(x, y, z float64) float64 {
		return math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y)
	})
	snap := Sample(m, field, Plane{Axis: mesh.AxisZ, Coord: 0.5}, 24, 24)
	var worst float64
	for j := 0; j < snap.Ny; j++ {
		for i := 0; i < snap.Nx; i++ {
			x := (float64(i) + 0.5) / 24
			y := (float64(j) + 0.5) / 24
			want := math.Sin(2*math.Pi*x) * math.Cos(2*math.Pi*y)
			if d := math.Abs(snap.At(i, j) - want); d > worst {
				worst = d
			}
		}
	}
	// Nearest-node sampling error is bounded by the node spacing times the
	// field gradient (~2 pi * spacing).
	if worst > 0.45 {
		t.Errorf("nearest-node sampling error %g too large", worst)
	}
}

func TestSamplePlaneSelection(t *testing.T) {
	m := mesh.New(1, 4, true)
	field := buildField(m, func(x, y, z float64) float64 { return z })
	lowZ := Sample(m, field, Plane{Axis: mesh.AxisZ, Coord: 0.1}, 8, 8)
	highZ := Sample(m, field, Plane{Axis: mesh.AxisZ, Coord: 0.9}, 8, 8)
	if lowZ.Data[0] >= highZ.Data[0] {
		t.Errorf("plane selection wrong: z=0.1 sample %g vs z=0.9 sample %g", lowZ.Data[0], highZ.Data[0])
	}
	// X-plane: in-plane axes are (y, z); the field z should vary along j.
	xp := Sample(m, field, Plane{Axis: mesh.AxisX, Coord: 0.5}, 4, 4)
	if xp.At(0, 0) >= xp.At(0, 3) {
		t.Error("x-plane in-plane axis mapping wrong")
	}
}

func TestMinMaxAndRMS(t *testing.T) {
	s := &Snapshot{Nx: 2, Ny: 2, Data: []float64{-1, 0, 0, 3}}
	lo, hi := s.MinMax()
	if lo != -1 || hi != 3 {
		t.Errorf("MinMax = %g, %g", lo, hi)
	}
	if want := math.Sqrt(10.0 / 4); math.Abs(s.RMS()-want) > 1e-15 {
		t.Errorf("RMS = %g want %g", s.RMS(), want)
	}
}

func TestASCII(t *testing.T) {
	s := &Snapshot{Nx: 3, Ny: 2, Data: []float64{0, 0, 0, 1, -1, 0}}
	art := s.ASCII()
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 2 || len([]rune(lines[0])) != 3 {
		t.Fatalf("ASCII shape wrong: %q", art)
	}
	// Row j=1 renders first (top); |1| and |-1| map to the densest glyph.
	if lines[0][0] != '@' || lines[0][1] != '@' {
		t.Errorf("peak glyphs wrong: %q", lines[0])
	}
	if lines[1] != "   " {
		t.Errorf("zero row wrong: %q", lines[1])
	}
}

func TestSamplePanicsOnLengthMismatch(t *testing.T) {
	m := mesh.New(1, 4, true)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Sample(m, make([]float64, 3), Plane{Axis: mesh.AxisZ, Coord: 0.5}, 4, 4)
}
