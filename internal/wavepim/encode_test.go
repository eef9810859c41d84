package wavepim

import (
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/isa"
)

// assertRoundTrip checks one instruction survives encode/decode.
func assertRoundTrip(t *testing.T, in isa.Instr) {
	t.Helper()
	w, err := isa.Encode(in)
	if err != nil {
		t.Fatalf("encode %+v: %v", in, err)
	}
	back, err := isa.Decode(w)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back != in {
		t.Fatalf("round trip failed:\n in %+v\nout %+v", in, back)
	}
}

// Every instruction the compiler emits must survive the 64-bit ISA
// encoding round trip — the property that makes the system "ISA-based":
// the host really could stream these programs as instruction words.
func TestAllCompiledProgramsAreEncodable(t *testing.T) {
	plan := Plan{Tech: ExpandParallel, Layout: AcousticFourBlock, SlotsPerElem: 4}
	for _, flux := range []dg.FluxType{dg.CentralFlux, dg.RiemannFlux} {
		for _, np := range []int{4, 8} {
			c := NewCompiler(plan, np, flux)
			var programs [][]isa.Instr
			programs = append(programs,
				c.VolumeOneBlock(),
				c.VolumePBlock(),
				c.FluxPBlockGather(),
				c.VolumeElasticDiag(),
				c.VolumeElasticShear(),
				c.VolumeElasticVel(),
				c.Volume12Vel(),
				c.Volume12Diag(mesh.AxisY),
				c.Volume12Shear(0, 2),
			)
			for a := mesh.AxisX; a <= mesh.AxisZ; a++ {
				programs = append(programs, c.VolumeVBlock(a))
			}
			for f := mesh.Face(0); f < mesh.NumFaces; f++ {
				programs = append(programs,
					c.FluxOneBlock(f),
					c.FluxVBlock(f, f%2 == 0),
					c.FluxElasticDiag(f),
					c.FluxElasticShear(f),
					c.FluxElasticVel(f),
					c.Flux12Var(f),
				)
			}
			for s := 0; s < dg.NumStages; s++ {
				programs = append(programs,
					c.IntegrationOneBlock(s),
					c.IntegrationExpanded(s),
					c.IntegrationElastic(s),
				)
			}
			for pi, prog := range programs {
				for ii, in := range prog {
					w, err := isa.Encode(in)
					if err != nil {
						t.Fatalf("np=%d flux=%v: program %d instr %d (%+v): %v", np, flux, pi, ii, in, err)
					}
					back, err := isa.Decode(w)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if back != in {
						t.Fatalf("np=%d flux=%v: program %d instr %d does not round-trip:\n in %+v\nout %+v",
							np, flux, pi, ii, in, back)
					}
				}
			}
		}
	}
}

// Program-size sanity across layouts: Riemann > central for every flux
// program; twelve-block volume critical path < four-block critical path.
func TestProgramSizeRelations(t *testing.T) {
	plan := Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: 4}
	cc := NewCompiler(plan, 8, dg.CentralFlux)
	cr := NewCompiler(plan, 8, dg.RiemannFlux)
	if len(cr.FluxOneBlock(mesh.FaceYMinus)) <= len(cc.FluxOneBlock(mesh.FaceYMinus)) {
		t.Error("Riemann one-block flux should exceed central")
	}
	fourBlockCritical := len(cc.VolumeElasticVel()) // 9 dots
	// The twelve-block layout's longest per-block Volume program: the
	// diag/velocity blocks' three dot products.
	twelveCritical := max(len(cc.Volume12Diag(mesh.AxisX)), len(cc.Volume12Vel()))
	if twelveCritical >= fourBlockCritical {
		t.Errorf("twelve-block volume critical path (%d) should beat four-block (%d)",
			twelveCritical, fourBlockCritical)
	}
}
