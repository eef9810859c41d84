package opcount

import (
	"testing"
)

func TestBenchmarkNamesAndSizes(t *testing.T) {
	bs := AllBenchmarks()
	if len(bs) != 6 {
		t.Fatalf("want 6 benchmarks, got %d", len(bs))
	}
	wantNames := []string{
		"Acoustic_4", "Elastic-Central_4", "Elastic-Riemann_4",
		"Acoustic_5", "Elastic-Central_5", "Elastic-Riemann_5",
	}
	wantElems := []int{4096, 4096, 4096, 32768, 32768, 32768}
	for i, b := range bs {
		if b.Name() != wantNames[i] {
			t.Errorf("benchmark %d name %q want %q", i, b.Name(), wantNames[i])
		}
		if b.NumElements() != wantElems[i] {
			t.Errorf("%s: %d elements, want %d", b.Name(), b.NumElements(), wantElems[i])
		}
	}
}

func TestNumVars(t *testing.T) {
	if Acoustic.NumVars() != 4 {
		t.Error("acoustic has 4 variables (p, vx, vy, vz)")
	}
	if ElasticCentral.NumVars() != 9 || ElasticRiemann.NumVars() != 9 {
		t.Error("elastic has 9 variables (6 stress + 3 velocity)")
	}
}

// The level-5 cost must be exactly 8x the level-4 cost (8x the elements) —
// a relation Table 6's published numbers also satisfy exactly.
func TestLevel5IsEightTimesLevel4(t *testing.T) {
	for _, eq := range []Equation{Acoustic, ElasticCentral, ElasticRiemann} {
		c4 := OneLaunchEach(Benchmark{eq, 4})
		c5 := OneLaunchEach(Benchmark{eq, 5})
		if c5.FLOPs != 8*c4.FLOPs || c5.Bytes() != 8*c4.Bytes() {
			t.Errorf("%v: level5 != 8x level4", eq)
		}
	}
}

// Our analytic FP-op counts must land within 2x of the paper's
// nvprof-measured values for every benchmark (exact agreement is impossible
// without the authors' CUDA source; the shape — ordering and ratios between
// benchmarks — is what matters downstream).
func TestFPOpsWithinFactorOfPaper(t *testing.T) {
	paper := PaperTable6()
	for i, b := range AllBenchmarks() {
		got := OneLaunchEach(b).FLOPs
		want := paper[i].FPOps
		ratio := float64(got) / float64(want)
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: analytic FLOPs %d vs paper %d (ratio %.2f), want within 2x",
				b.Name(), got, want, ratio)
		}
	}
}

// Ordering: elastic-central > acoustic, elastic-riemann > elastic-central
// in both FLOPs and instructions, at both levels — the qualitative relation
// the evaluation depends on.
func TestBenchmarkOrdering(t *testing.T) {
	for _, ref := range []int{4, 5} {
		ac := OneLaunchEach(Benchmark{Acoustic, ref}).FLOPs
		ec := OneLaunchEach(Benchmark{ElasticCentral, ref}).FLOPs
		er := OneLaunchEach(Benchmark{ElasticRiemann, ref}).FLOPs
		if !(ac < ec && ec < er) {
			t.Errorf("level %d: FLOP ordering wrong: %d %d %d", ref, ac, ec, er)
		}
		ia := Instructions(Benchmark{Acoustic, ref})
		ie := Instructions(Benchmark{ElasticCentral, ref})
		ir := Instructions(Benchmark{ElasticRiemann, ref})
		if !(ia < ie && ie < ir) {
			t.Errorf("level %d: instruction ordering wrong: %d %d %d", ref, ia, ie, ir)
		}
	}
}

func TestInstructionsWithinFactorOfPaper(t *testing.T) {
	paper := PaperTable6()
	for i, b := range AllBenchmarks() {
		got := Instructions(b)
		want := paper[i].Instructions
		ratio := float64(got) / float64(want)
		if ratio < 0.45 || ratio > 2.2 {
			t.Errorf("%s: instructions %d vs paper %d (ratio %.2f)",
				b.Name(), got, want, ratio)
		}
	}
}

func TestIntegrationIsMemoryBound(t *testing.T) {
	// The paper: "the Integration kernel does not scale so well ... since
	// the memory accesses dominate this kernel". Arithmetic intensity of
	// Integration must be far below Volume's.
	for _, eq := range []Equation{Acoustic, ElasticCentral} {
		vol := PerElement(eq, KernelVolume)
		integ := PerElement(eq, KernelIntegration)
		aiVol := float64(vol.FLOPs) / float64(vol.Bytes())
		aiInt := float64(integ.FLOPs) / float64(integ.Bytes())
		if aiInt*4 > aiVol {
			t.Errorf("%v: Integration AI %.3f not well below Volume AI %.3f", eq, aiInt, aiVol)
		}
	}
}

func TestRiemannHasSpecialOps(t *testing.T) {
	if PerElement(ElasticRiemann, KernelFlux).SpecialOps == 0 {
		t.Error("Riemann flux must include sqrt/inverse special ops (the ones Wave-PIM offloads to the host)")
	}
	if PerElement(Acoustic, KernelFlux).SpecialOps != 0 {
		t.Error("central-style acoustic flux should not need special ops per launch")
	}
}

func TestCostArithmetic(t *testing.T) {
	a := Cost{FLOPs: 1, SpecialOps: 2, ReadBytes: 3, WriteBytes: 4}
	b := a.Add(a)
	if b.FLOPs != 2 || b.WriteBytes != 8 || b.Bytes() != 14 {
		t.Error("Add/Bytes wrong")
	}
	c := a.Scale(3)
	if c.SpecialOps != 6 || c.ReadBytes != 9 {
		t.Error("Scale wrong")
	}
}
