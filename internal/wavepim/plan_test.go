package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/chip"
)

// The planner must reproduce Table 5 exactly, cell for cell.
func TestPlannerReproducesTable5(t *testing.T) {
	paper := PaperTable5()
	for _, b := range opcount.AllBenchmarks() {
		for _, cfg := range chip.AllConfigs() {
			p, err := MakePlan(b, cfg)
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name(), cfg.Name, err)
			}
			want := paper[table5Key(b)][cfg.Name]
			if got := p.Table5String(); got != want {
				t.Errorf("Table 5 cell (%s, %s): got %s want %s", b.Name(), cfg.Name, got, want)
			}
		}
	}
}

// The paper singles out two batch counts: 512MB needs 32 batches for
// elastic level 5 (Section 7.3) and stores half the level-5 elements on a
// 2GB chip (Section 6.1.2's Figure 7 setup: slices 0-15 of 32).
func TestPlannerBatchCountsMatchPaper(t *testing.T) {
	p, err := MakePlan(opcount.Benchmark{Eq: opcount.ElasticCentral, Refinement: 5}, chip.Config512MB())
	if err != nil {
		t.Fatal(err)
	}
	if p.Batches != 32 {
		t.Errorf("elastic_5 on 512MB: %d batches, want 32 (paper Section 7.3)", p.Batches)
	}
	p2, err := MakePlan(opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 5}, chip.Config2GB())
	if err != nil {
		t.Fatal(err)
	}
	if p2.SlicesPerBatch != 16 || p2.Batches != 2 {
		t.Errorf("acoustic_5 on 2GB: %d slices/batch in %d batches, want 16 in 2 (Figure 7)",
			p2.SlicesPerBatch, p2.Batches)
	}
}

func TestPlanBlocksNeverExceedChip(t *testing.T) {
	for _, b := range opcount.AllBenchmarks() {
		for _, cfg := range chip.AllConfigs() {
			p, err := MakePlan(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if p.BlocksUsed() > cfg.NumBlocks() {
				t.Errorf("%s: batch uses %d blocks > %d available", p, p.BlocksUsed(), cfg.NumBlocks())
			}
			if p.Batches*p.SlicesPerBatch < p.NumSlices {
				t.Errorf("%s: batches do not cover the mesh", p)
			}
		}
	}
}

func TestTechniqueStrings(t *testing.T) {
	cases := map[Technique]string{
		Naive:                                  "N",
		ExpandParallel:                         "E_p",
		ExpandRows:                             "E_r",
		ExpandRows | Batching:                  "E_r&B",
		ExpandRows | ExpandParallel:            "E_r&E_p",
		Batching:                               "B",
		ExpandParallel | Batching:              "E_p&B",
		ExpandRows | ExpandParallel | Batching: "E_r&E_p&B",
	}
	for tech, want := range cases {
		if got := tech.String(); got != want {
			t.Errorf("%d.String() = %q want %q", tech, got, want)
		}
	}
}

func TestLayoutSlots(t *testing.T) {
	if AcousticOneBlock.SlotsPerElement() != 1 ||
		AcousticFourBlock.SlotsPerElement() != 4 ||
		ElasticFourBlock.SlotsPerElement() != 4 ||
		ElasticTwelveBlock.SlotsPerElement() != 12 {
		t.Error("slot counts wrong")
	}
}

func TestLayoutFor(t *testing.T) {
	if LayoutFor(opcount.Acoustic, Naive) != AcousticOneBlock {
		t.Error("acoustic naive layout")
	}
	if LayoutFor(opcount.Acoustic, ExpandParallel) != AcousticFourBlock {
		t.Error("acoustic expanded layout")
	}
	if LayoutFor(opcount.ElasticCentral, ExpandRows|Batching) != ElasticFourBlock {
		t.Error("elastic base layout")
	}
	if LayoutFor(opcount.ElasticRiemann, ExpandRows|ExpandParallel) != ElasticTwelveBlock {
		t.Error("elastic expanded layout")
	}
}

func TestMorton3(t *testing.T) {
	if Morton3(0, 0, 0) != 0 {
		t.Error("origin")
	}
	if Morton3(1, 0, 0) != 1 || Morton3(0, 1, 0) != 2 || Morton3(0, 0, 1) != 4 {
		t.Error("unit vectors")
	}
	if Morton3(3, 3, 3) != 63 {
		t.Errorf("Morton3(3,3,3) = %d want 63", Morton3(3, 3, 3))
	}
	// Bijective over a 8^3 cube.
	seen := make(map[int]bool)
	for z := 0; z < 8; z++ {
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				m := Morton3(x, y, z)
				if m < 0 || m >= 512 || seen[m] {
					t.Fatalf("Morton3 not bijective at (%d,%d,%d): %d", x, y, z, m)
				}
				seen[m] = true
			}
		}
	}
}

func TestMortonLocality(t *testing.T) {
	// Neighboring elements must land closer together (on average) under
	// Morton order than under row-major for the z axis, which is what keeps
	// z-flux transfers inside tiles.
	const n = 16
	var mortonDist, rowDist int
	for z := 0; z < n-1; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				dm := Morton3(x, y, z+1) - Morton3(x, y, z)
				if dm < 0 {
					dm = -dm
				}
				mortonDist += dm
				rowDist += n * n // row-major z-neighbor distance
			}
		}
	}
	if mortonDist >= rowDist {
		t.Errorf("Morton z-neighbor distance %d should beat row-major %d", mortonDist, rowDist)
	}
}

// Every role sits in the slot its layout's schedule gives it, at the
// element's placed base block.
func TestPlacementRoles(t *testing.T) {
	m := mesh.New(2, 4, true)
	c := NewCompiler(Plan{}, m.Np, dg.RiemannFlux)
	p := NewPlacement(AcousticFourBlock, m.EPerAxis, m.EPerAxis, true)
	base := p.ElemSlot(1, 2, 3)
	if base%4 != 0 {
		t.Error("four-block slots must be 4-aligned (S0 group alignment)")
	}
	e := (3*m.EPerAxis+2)*m.EPerAxis + 1
	if ex, ey, ez := m.ElemCoords(e); ex != 1 || ey != 2 || ez != 3 {
		t.Fatalf("element %d at (%d,%d,%d)", e, ex, ey, ez)
	}
	expanded := expandedSchedule(c).instantiate(m, p, m.NumElem)
	if expanded.vars[0].blocks[e] != base || expanded.vars[3].blocks[e] != base+3 {
		t.Errorf("expanded p / vz blocks = %d / %d, want %d / %d",
			expanded.vars[0].blocks[e], expanded.vars[3].blocks[e], base, base+3)
	}
	el := elasticSchedule(c)
	for v, want := range []int{0, 0, 0, 1, 1, 1, 2, 2, 2} {
		if el.vars[v].slot != want {
			t.Errorf("elastic variable %d in slot %d, want %d", v, el.vars[v].slot, want)
		}
	}
	roles := []computeSlot{{0, RoleStressDiag}, {1, RoleStressShear}, {2, RoleVelocity}}
	if len(el.compute) != len(roles) {
		t.Fatalf("elastic compute slots %v, want %v", el.compute, roles)
	}
	for i, cs := range el.compute {
		if cs != roles[i] {
			t.Errorf("elastic compute slot %d = %v, want %v", i, cs, roles[i])
		}
	}
	if got := NewPlacement(ElasticTwelveBlock, 4, 4, true).ElemSlot(1, 0, 0); got != 12 {
		t.Errorf("twelve-block element (1,0,0) at %d, want 12", got)
	}
	if got := NewPlacement(AcousticOneBlock, 4, 4, false).ElemSlot(1, 0, 0); got != 1 {
		t.Errorf("row-major one-block element (1,0,0) at %d, want 1", got)
	}
	// A two-slice batch is slice-major, Morton-2D within each slice.
	batch := NewPlacement(AcousticOneBlock, 4, 2, true)
	if got := batch.ElemSlot(1, 1, 1); got != 16+3 {
		t.Errorf("batched element (1,1,1) at %d, want 19", got)
	}
	if got := batch.MaxBlockID(); got != 31 {
		t.Errorf("batched MaxBlockID = %d, want 31", got)
	}
}

func TestPlanElemsPerBatch(t *testing.T) {
	p, err := MakePlan(opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 5}, chip.Config512MB())
	if err != nil {
		t.Fatal(err)
	}
	// 4096 blocks / 1024 elems per slice = 4 slices per batch.
	if p.SlicesPerBatch != 4 || p.Batches != 8 {
		t.Errorf("acoustic_5 on 512MB: %d slices/batch, %d batches; want 4, 8", p.SlicesPerBatch, p.Batches)
	}
	if p.ElemsPerBatch() != 4096 {
		t.Errorf("ElemsPerBatch = %d", p.ElemsPerBatch())
	}
}
