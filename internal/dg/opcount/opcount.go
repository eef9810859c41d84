// Package opcount derives analytic operation counts (floating-point ops,
// bytes moved, special-function ops, executed instructions) for the three dG
// kernels of Figure 2 on each benchmark of Table 6. The counts are computed
// from the discretization itself — nodes per element, stencil widths, flux
// arithmetic — and drive both the Table 6 reproduction and the GPU roofline
// model of internal/gpu.
package opcount

import "fmt"

// Equation identifies the PDE system and flux solver of a benchmark group
// (Section 7.2's three groups).
type Equation int

const (
	Acoustic Equation = iota
	ElasticCentral
	ElasticRiemann
	// Maxwell is the reproduction's extension benchmark (not in the
	// paper's Table 6): the electromagnetic system of Section 2.1's
	// structural-similarity claim, mapped through the same pipeline.
	Maxwell
)

func (e Equation) String() string {
	switch e {
	case Acoustic:
		return "Acoustic"
	case ElasticCentral:
		return "Elastic-Central"
	case ElasticRiemann:
		return "Elastic-Riemann"
	case Maxwell:
		return "Maxwell"
	}
	return fmt.Sprintf("Equation(%d)", int(e))
}

// NumVars returns the unknown variables per node: 4 for acoustic (p, v),
// 9 for elastic (6 stress + 3 velocity) — Section 2.1 — and 6 for the
// Maxwell extension (E, H).
func (e Equation) NumVars() int {
	switch e {
	case Acoustic:
		return 4
	case Maxwell:
		return 6
	default:
		return 9
	}
}

// Benchmark is one of the paper's six evaluation workloads.
type Benchmark struct {
	Eq         Equation
	Refinement int
}

// Name renders the paper's benchmark naming (e.g. "Acoustic_4",
// "Elastic-Riemann_5").
func (b Benchmark) Name() string { return fmt.Sprintf("%s_%d", b.Eq, b.Refinement) }

// NumElements is (2^n)^3.
func (b Benchmark) NumElements() int {
	e := 1 << b.Refinement
	return e * e * e
}

// All six benchmarks of Table 6, in the paper's order.
func AllBenchmarks() []Benchmark {
	return []Benchmark{
		{Acoustic, 4},
		{ElasticCentral, 4},
		{ElasticRiemann, 4},
		{Acoustic, 5},
		{ElasticCentral, 5},
		{ElasticRiemann, 5},
	}
}

// Np is the GLL nodes per axis of the paper's element (512-node elements).
const Np = 8

// NodesPerElem is Np^3 = 512.
const NodesPerElem = Np * Np * Np

// NodesPerFace is Np^2 = 64.
const NodesPerFace = Np * Np

// WordBytes is the 32-bit data precision used by both platforms.
const WordBytes = 4

// Kernel identifies one of the three primary kernels.
type Kernel int

const (
	KernelVolume Kernel = iota
	KernelFlux
	KernelIntegration
	NumKernels
)

func (k Kernel) String() string {
	switch k {
	case KernelVolume:
		return "Volume"
	case KernelFlux:
		return "Flux"
	case KernelIntegration:
		return "Integration"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// Cost is the per-element cost of launching one kernel once.
type Cost struct {
	FLOPs      int64 // ordinary single-precision operations
	SpecialOps int64 // sqrt / reciprocal (flop_count_sp_special)
	ReadBytes  int64 // DRAM traffic in
	WriteBytes int64 // DRAM traffic out
}

// Total bytes moved.
func (c Cost) Bytes() int64 { return c.ReadBytes + c.WriteBytes }

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		FLOPs:      c.FLOPs + o.FLOPs,
		SpecialOps: c.SpecialOps + o.SpecialOps,
		ReadBytes:  c.ReadBytes + o.ReadBytes,
		WriteBytes: c.WriteBytes + o.WriteBytes,
	}
}

// Scale returns the cost multiplied by n.
func (c Cost) Scale(n int64) Cost {
	return Cost{FLOPs: c.FLOPs * n, SpecialOps: c.SpecialOps * n,
		ReadBytes: c.ReadBytes * n, WriteBytes: c.WriteBytes * n}
}

// diffFLOPs is the cost of one tensor-product derivative over a full
// element: for every node, a dot product of length Np (Np multiplies,
// Np-1 adds) with the dshape row, plus the Jacobian scale.
const diffFLOPs = NodesPerElem * (2*Np - 1 + 1)

// PerElement returns the cost of one launch of kernel k on one element of
// equation eq. The counts mirror internal/dg's reference implementation
// operation for operation.
func PerElement(eq Equation, k Kernel) Cost {
	nv := int64(eq.NumVars())
	switch k {
	case KernelVolume:
		var flops int64
		switch eq {
		case Acoustic:
			// div v: 3 derivatives + 2 adds/node; rhs_p: 1 mul/node.
			// grad p: 3 derivatives; rhs_v: 1 mul/node each.
			flops = 6*diffFLOPs + NodesPerElem*(2+1+3)
		case Maxwell:
			// Two curls: 12 derivatives plus a subtract and scale per
			// component per field.
			flops = 12*diffFLOPs + NodesPerElem*(6*2)
		default:
			// grad v: 9 derivatives; stress combine ~ 6 comps x 4 flops.
			// div S: 9 derivatives (6 unique comps re-read); velocity
			// combine 3 muls.
			flops = 18*diffFLOPs + NodesPerElem*(6*4+3)
		}
		return Cost{
			FLOPs: flops,
			// Read all variables + constants (dshape Np*Np, jacobians,
			// materials; constant-memory cached once per SM, amortized).
			ReadBytes: nv*NodesPerElem*WordBytes + (Np*Np+16)*WordBytes,
			// Write all contributions.
			WriteBytes: nv * NodesPerElem * WordBytes,
		}
	case KernelFlux:
		faceNodes := int64(6 * NodesPerFace)
		var perNode int64
		var special int64
		switch eq {
		case Acoustic:
			// Central part: averages + 2 lifted corrections ~ 12 flops;
			// Riemann penalties + impedance terms ~ 12 more. The acoustic
			// benchmark group uses the Riemann solver's central variant in
			// the paper's GPU code; keep the central cost.
			perNode = 18
		case Maxwell:
			// Two acoustic-analogue tangential channels per face.
			perNode = 36
		case ElasticCentral:
			// Tractions (2x3 muls), averages (9), six stress corrections
			// (~5 flops each), three velocity corrections (~3 each).
			perNode = 54
		case ElasticRiemann:
			// Adds normal/tangential splits and four impedance penalty
			// channels.
			perNode = 130
			// sqrt + reciprocal per material pair, evaluated per face in
			// the GPU implementation.
			special = faceNodes / NodesPerFace * 4
		}
		return Cost{
			FLOPs:      faceNodes * perNode,
			SpecialOps: special,
			// Own face values + neighbor face values for all variables.
			ReadBytes: 2 * faceNodes * nv * WordBytes,
			// Accumulate into the contributions of the face nodes.
			WriteBytes: faceNodes * nv * WordBytes,
		}
	case KernelIntegration:
		// aux = A*aux + dt*contr (3 flops), q += B*aux (2 flops), per
		// variable per node.
		return Cost{
			FLOPs: nv * NodesPerElem * 5,
			// Read contributions, aux, variables; write aux, variables.
			ReadBytes:  3 * nv * NodesPerElem * WordBytes,
			WriteBytes: 2 * nv * NodesPerElem * WordBytes,
		}
	}
	panic(fmt.Sprintf("opcount: unknown kernel %d", int(k)))
}

// PerLaunch returns the whole-model cost of launching kernel k once on
// benchmark b.
func PerLaunch(b Benchmark, k Kernel) Cost {
	return PerElement(b.Eq, k).Scale(int64(b.NumElements()))
}

// OneLaunchEach returns the benchmark cost with each kernel launched once —
// the accounting used for Table 6 ("Values are the total from each kernel
// launched once").
func OneLaunchEach(b Benchmark) Cost {
	var c Cost
	for k := Kernel(0); k < NumKernels; k++ {
		c = c.Add(PerLaunch(b, k))
	}
	return c
}

// InstructionExpansion is the executed-thread-instructions per FLOP ratio of
// the paper's fused GPU implementation, from Table 6's own columns
// (instructions / FP ops): 5.47 for acoustic, 3.50 for elastic-central,
// 6.70 for elastic-Riemann. These are nvprof-measured constants — the only
// Table 6 quantity we cannot derive from the discretization (they fold in
// address arithmetic, predication and divergence of the authors' CUDA
// code) — and are constant across refinement levels in the paper's data.
func InstructionExpansion(eq Equation) float64 {
	switch eq {
	case Acoustic:
		return 5.47
	case ElasticCentral, Maxwell: // Maxwell uses an upwind solver but the
		// acoustic-like channel structure; the central elastic expansion
		// is the closest published analogue.
		return 3.50
	default:
		return 6.70
	}
}

// Instructions estimates the executed thread-level instruction count for
// one launch of each kernel on benchmark b.
func Instructions(b Benchmark) int64 {
	c := OneLaunchEach(b)
	return int64(float64(c.FLOPs+c.SpecialOps) * InstructionExpansion(b.Eq))
}

// PaperTable6 records the published values for comparison in tests and in
// EXPERIMENTS.md.
type PaperRow struct {
	Name         string
	Elements     int
	Instructions int64
	FPOps        int64
}

// PaperTable6 returns Table 6 exactly as printed in the paper.
func PaperTable6() []PaperRow {
	return []PaperRow{
		{"Acoustic_4", 4096, 2140930048, 391380992},
		{"Elastic-Central_4", 4096, 3465543680, 990117888},
		{"Elastic-Riemann_4", 4096, 9870131200, 1472200704},
		{"Acoustic_5", 32768, 17127440384, 3131047936},
		{"Elastic-Central_5", 32768, 27724349440, 7920943104},
		{"Elastic-Riemann_5", 32768, 78960159424, 11777661440},
	}
}
