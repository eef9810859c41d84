package wavepim

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out (element placement, pipelining, expansion,
// interconnect). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark performs the full generation work of its experiment and
// attaches the key reproduced quantities as custom metrics, so the bench
// output doubles as a compact reproduction report.

import (
	"fmt"
	"runtime"
	"testing"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/experiments"
	"wavepim/internal/gpu"
	"wavepim/internal/hostcpu"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/nor"
	wp "wavepim/internal/wavepim"
)

// BenchmarkSec31GPUvsCPU regenerates the Section 3.1 GPU-vs-CPU speedups.
func BenchmarkSec31GPUvsCPU(b *testing.B) {
	var last []experiments.Sec31Row
	for i := 0; i < b.N; i++ {
		last = experiments.Sec31()
	}
	for _, r := range last {
		if r.Level == 5 && r.Platform == "Tesla V100" {
			b.ReportMetric(r.Model, "V100-L5-speedup")
		}
	}
}

// BenchmarkTable3PowerModel regenerates the chip power breakdown.
func BenchmarkTable3PowerModel(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		total = chip.PowerModel(chip.Config2GB()).TotalW
	}
	b.ReportMetric(total, "2GB-htree-W")
}

// BenchmarkTable4BasicOps measures the gate-level FP32 operations whose
// costs Table 4 parameterizes.
func BenchmarkTable4BasicOps(b *testing.B) {
	var c nor.Circuit
	b.Run("AddFP32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.AddFP32(0x40490FDB, 0x3F800001)
		}
	})
	b.Run("MulFP32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.MulFP32(0x40490FDB, 0x3F800001)
		}
	})
}

// BenchmarkTable5Planner regenerates the configuration grid.
func BenchmarkTable5Planner(b *testing.B) {
	var n int
	for i := 0; i < b.N; i++ {
		n = len(experiments.Table5())
	}
	b.ReportMetric(float64(n), "cells")
}

// BenchmarkTable6Characteristics regenerates the benchmark characteristics.
func BenchmarkTable6Characteristics(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table6()
	}
	b.ReportMetric(float64(rows[0].ModelFLOPs), "acoustic4-flops")
}

// BenchmarkFig11Performance runs the full performance comparison.
func BenchmarkFig11Performance(b *testing.B) {
	var rows []experiments.FigRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11And12()
	}
	sp := experiments.AvgSpeedups(rows, "Unfused-1080Ti")
	b.ReportMetric(sp["PIM-2GB-28nm"], "2GB-avg-speedup")
	b.ReportMetric(sp["PIM-16GB-28nm"], "16GB-avg-speedup")
}

// BenchmarkFig12Energy runs the energy comparison.
func BenchmarkFig12Energy(b *testing.B) {
	var rows []experiments.FigRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig11And12()
	}
	es := experiments.AvgEnergySavings(rows, "Unfused-1080Ti")
	b.ReportMetric(es["PIM-512MB-28nm"], "512MB-avg-savings")
}

// BenchmarkFig13Pipeline runs the pipeline analysis.
func BenchmarkFig13Pipeline(b *testing.B) {
	var r experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig13()
	}
	b.ReportMetric(r.ThroughputRatio, "unpipelined-throughput")
}

// BenchmarkFig14Interconnect runs the H-tree versus Bus study.
func BenchmarkFig14Interconnect(b *testing.B) {
	var s float64
	for i := 0; i < b.N; i++ {
		s = experiments.HTreeTimeSavings()
	}
	b.ReportMetric(s, "htree-savings")
}

// BenchmarkHeadline computes the whole-paper averages.
func BenchmarkHeadline(b *testing.B) {
	var h experiments.HeadlineResult
	for i := 0; i < b.N; i++ {
		h = experiments.Headline()
	}
	b.ReportMetric(h.AvgSpeedup, "avg-speedup")
	b.ReportMetric(h.AvgEnergy, "avg-energy-savings")
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationPlacement compares Morton against row-major element
// placement: row-major scatters z-neighbors across tiles and inflates the
// flux fetch.
func BenchmarkAblationPlacement(b *testing.B) {
	bench := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	run := func(morton bool) wp.Result {
		opt := wp.DefaultOptions()
		opt.Morton = morton
		r, err := wp.Run(bench, chip.Config2GB(), opt)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	var m, rm wp.Result
	for i := 0; i < b.N; i++ {
		m = run(true)
		rm = run(false)
	}
	b.ReportMetric(rm.Breakdown.InterTransferSec/m.Breakdown.InterTransferSec, "rowmajor-fetch-penalty")
}

// BenchmarkAblationPipelining quantifies the Section 6.3 pipeline.
func BenchmarkAblationPipelining(b *testing.B) {
	bench := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	var ratio float64
	for i := 0; i < b.N; i++ {
		on := wp.DefaultOptions()
		off := wp.DefaultOptions()
		off.Pipelined = false
		r1, err := wp.Run(bench, chip.Config2GB(), on)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := wp.Run(bench, chip.Config2GB(), off)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r1.StageSec / r2.StageSec
	}
	b.ReportMetric(ratio, "pipelined/unpipelined")
}

// BenchmarkAblationExpansion forces the naive layout onto a chip the
// planner would expand on, quantifying E_p's benefit.
func BenchmarkAblationExpansion(b *testing.B) {
	bench := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	var naive, expanded wp.Result
	for i := 0; i < b.N; i++ {
		plan, err := wp.MakePlan(bench, chip.Config2GB())
		if err != nil {
			b.Fatal(err)
		}
		var e2 error
		expanded, e2 = wp.RunPlan(plan, wp.DefaultOptions())
		if e2 != nil {
			b.Fatal(e2)
		}
		// Force the naive one-element-per-block plan on the same chip.
		plan.Tech = wp.Naive
		plan.Layout = wp.AcousticOneBlock
		plan.SlotsPerElem = 1
		naive, e2 = wp.RunPlan(plan, wp.DefaultOptions())
		if e2 != nil {
			b.Fatal(e2)
		}
	}
	b.ReportMetric(naive.StepSec/expanded.StepSec, "expansion-speedup")
}

// BenchmarkAblationInterconnectMicro measures raw schedule makespans of
// neighbor-heavy traffic on both topologies.
func BenchmarkAblationInterconnectMicro(b *testing.B) {
	var batch []intercon.Transfer
	for e := 0; e < 128; e++ {
		batch = append(batch, intercon.Transfer{Src: e, Dst: (e + 1) % 256, Words: 256})
	}
	ht := intercon.NewHTree(256, 4)
	bus := intercon.NewBus(256)
	var hm, bm float64
	for i := 0; i < b.N; i++ {
		hm = intercon.ScheduleBatch(ht, batch).Makespan
		bm = intercon.ScheduleBatch(bus, batch).Makespan
	}
	b.ReportMetric(bm/hm, "bus/htree-makespan")
}

// ---------------------------------------------------------------------------
// Substrate microbenchmarks
// ---------------------------------------------------------------------------

// BenchmarkDGReferenceStage measures one RK stage of the reference solver.
func BenchmarkDGReferenceStage(b *testing.B) {
	m := mesh.New(2, 8, true) // 64 paper-sized elements
	mat := material.Acoustic{Kappa: 2.25, Rho: 1}
	s := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, mat), dg.RiemannFlux)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, mat, 1, q)
	it := dg.NewAcousticIntegrator(s)
	dt := s.MaxStableDt(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step(q, 0, dt)
	}
}

// BenchmarkDGElasticStage measures the elastic counterpart.
func BenchmarkDGElasticStage(b *testing.B) {
	m := mesh.New(1, 8, true)
	mat := material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
	s := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, mat), dg.RiemannFlux)
	q := dg.NewElasticState(m)
	dg.PlaneWavePX(m, mat, 1, q)
	it := dg.NewElasticIntegrator(s)
	dt := s.MaxStableDt(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step(q, 0, dt)
	}
}

// BenchmarkAblationLUTOffload quantifies the Section 4.3 design choice:
// serving sqrt/inverse from look-up tables versus computing them in-array
// with gate-level Newton-Raphson.
func BenchmarkAblationLUTOffload(b *testing.B) {
	var c nor.Circuit
	for i := 0; i < b.N; i++ {
		c.RecipFP32(0x40133333) // 1/2.3
		c.SqrtFP32(0x40133333)
	}
	lutSteps := float64(2*params.BlockRowReadLatency+params.BlockRowWriteLatency) / params.TNORSeconds
	b.ReportMetric(float64(nor.RecipSteps()), "recip-NOR-steps")
	b.ReportMetric(float64(nor.SqrtSteps()), "sqrt-NOR-steps")
	b.ReportMetric(lutSteps, "lut-fetch-equivalent-steps")
}

// BenchmarkMaxwellExtension measures the electromagnetic dG stage (the
// Section 2.1 extension) and the two-block PIM mapping's program size.
func BenchmarkMaxwellExtension(b *testing.B) {
	m := mesh.New(1, 8, true)
	s := dg.NewMaxwellSolver(m, material.Vacuum, dg.RiemannFlux)
	q := dg.NewMaxwellState(m)
	dg.PlaneWaveEM(m, material.Vacuum, 1, q)
	it := dg.NewMaxwellIntegrator(s)
	dt := s.MaxStableDt(0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it.Step(q, 0, dt)
	}
	plan := wp.Plan{Tech: wp.ExpandRows, Layout: wp.ElasticFourBlock, SlotsPerElem: 4}
	comp := wp.NewCompiler(plan, 8, dg.RiemannFlux)
	b.ReportMetric(float64(len(comp.VolumeMaxwell(true))), "volume-instrs")
}

// ---------------------------------------------------------------------------
// Parallel-path benchmarks (lane-parallel NOR substrate, worker-pool engine
// and solvers).
// ---------------------------------------------------------------------------

// benchFP32Operands builds a reproducible n-lane operand batch covering
// normal, subnormal and large-exponent inputs.
func benchFP32Operands(n int) (a, b []uint32) {
	a = make([]uint32, n)
	b = make([]uint32, n)
	x := uint32(0x2545F491)
	for i := range a {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		a[i] = x
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		b[i] = x
	}
	return a, b
}

// BenchmarkNORFp32 runs fp32 add and multiply through the scalar gate path
// (one lane at a time, 64 lanes per iteration) and through the slab
// substrate at K=1 and K=DefaultSlabWords (one full slab of K*64 lanes per
// iteration). The slab_k8_n64 rows run 64 lanes on a K=8 circuit: one
// 64-row arithmetic instruction on one block, the shape of a step's NOR
// calls on a phase that runs per-block jobs. The slab_k8_n256 rows run
// 256 lanes, the chunk shape of the benchmark's nor_functional step at
// GOMAXPROCS=2: each of its block phases runs one program on 8 blocks of
// 64 rows, cut into one chunk of 4 blocks per worker, and an instruction
// is one slab call over a chunk. Iterations cover different lane counts,
// so every case reports ns/lane, which compares directly across paths and
// widths.
func BenchmarkNORFp32(b *testing.B) {
	for _, op := range []struct {
		name   string
		scalar func(*nor.Circuit, uint32, uint32) uint32
		slab   func(*nor.SlabCircuit, []uint32, []uint32, []uint32)
	}{
		{"add", (*nor.Circuit).AddFP32, (*nor.SlabCircuit).AddFP32Batch},
		{"mul", (*nor.Circuit).MulFP32, (*nor.SlabCircuit).MulFP32Batch},
	} {
		b.Run(op.name+"/scalar", func(b *testing.B) {
			av, bv := benchFP32Operands(nor.Lanes)
			var c nor.Circuit
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for l := range av {
					op.scalar(&c, av[l], bv[l])
				}
			}
			reportNsPerLane(b, len(av))
		})
		for _, sc := range []struct {
			name string
			k, n int
		}{
			{"slab_k1", 1, nor.Lanes},
			{fmt.Sprintf("slab_k%d", nor.DefaultSlabWords), nor.DefaultSlabWords, nor.DefaultSlabWords * nor.Lanes},
			{fmt.Sprintf("slab_k%d_n64", nor.DefaultSlabWords), nor.DefaultSlabWords, nor.Lanes},
			{fmt.Sprintf("slab_k%d_n256", nor.DefaultSlabWords), nor.DefaultSlabWords, 4 * nor.Lanes},
		} {
			b.Run(op.name+"/"+sc.name, func(b *testing.B) {
				av, bv := benchFP32Operands(sc.n)
				c := nor.NewSlabCircuit(sc.k)
				out := make([]uint32, len(av))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op.slab(c, av, bv, out)
				}
				reportNsPerLane(b, len(av))
			})
		}
	}
}

// reportNsPerLane reports the benchmark's elapsed time per processed lane.
func reportNsPerLane(b *testing.B, lanesPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanesPerOp), "ns/lane")
}

// BenchmarkFunctionalStep measures a fully functional PIM time-step (all
// data in simulated crossbar cells) on the shapes of the repository
// benchmark's two functional workloads: the compute-heavy acoustic layout
// at refinement 2 and the transfer-heavy four-block elastic-Riemann layout
// at refinement 1, both at 8 nodes per axis. Each runs with the engine's
// worker pool off (serial) and sized to the machine (parallel); the
// parallel path's merge keeps results identical. One warm step runs before
// the timer, so the benchmark times steady-state steps. Allocations are
// reported: a steady-state step allocates per phase, never per transfer.
func BenchmarkFunctionalStep(b *testing.B) {
	for _, sys := range []struct {
		name   string
		eq     opcount.Equation
		refine int
	}{
		{"acoustic", opcount.Acoustic, 2},
		{"elastic", opcount.ElasticRiemann, 1},
	} {
		for _, cfg := range []struct {
			name    string
			workers int
		}{
			{"serial", 1},
			{"parallel", runtime.GOMAXPROCS(0)},
		} {
			b.Run(sys.name+"/"+cfg.name, func(b *testing.B) {
				m := mesh.New(sys.refine, 8, true)
				s, err := wp.NewSession(wp.WithEquation(sys.eq), wp.WithMesh(m), wp.WithDt(1e-3), wp.WithWorkers(cfg.workers))
				if err != nil {
					b.Fatal(err)
				}
				if sys.eq == opcount.Acoustic {
					q := dg.NewAcousticState(m)
					dg.PlaneWaveX(m, material.Acoustic{Kappa: 2.25, Rho: 1}, 1, q)
					s.Acoustic().Load(q)
				} else {
					q := dg.NewElasticState(m)
					dg.PlaneWavePX(m, material.Elastic{Lambda: 2, Mu: 1, Rho: 1}, 1, q)
					s.Elastic().Load(q)
				}
				s.Step()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Step()
				}
			})
		}
	}
}

// rhsBenchMesh is BenchmarkRHS's mesh: refinement 3 at np 6, 512
// elements, so one RHS evaluation does milliseconds of work and the
// per-iteration timer overhead is negligible.
func rhsBenchMesh() *mesh.Mesh { return mesh.New(3, 6, true) }

// BenchmarkRHS measures one RHS evaluation (Volume + Flux) of each wave
// system on the reference dG solver.
func BenchmarkRHS(b *testing.B) {
	m := rhsBenchMesh()
	b.Run("acoustic", func(b *testing.B) {
		s := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, material.Acoustic{Kappa: 2.25, Rho: 1}), dg.RiemannFlux)
		q, rhs := dg.NewAcousticState(m), dg.NewAcousticState(m)
		dg.PlaneWaveX(m, material.Acoustic{Kappa: 2.25, Rho: 1}, 1, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RHS(q, rhs)
		}
	})
	b.Run("elastic", func(b *testing.B) {
		mat := material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
		s := dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, mat), dg.RiemannFlux)
		q, rhs := dg.NewElasticState(m), dg.NewElasticState(m)
		dg.PlaneWavePX(m, mat, 1, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RHS(q, rhs)
		}
	})
	b.Run("maxwell", func(b *testing.B) {
		s := dg.NewMaxwellSolver(m, material.Vacuum, dg.RiemannFlux)
		q, rhs := dg.NewMaxwellState(m), dg.NewMaxwellState(m)
		dg.PlaneWaveEM(m, material.Vacuum, 1, q)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.RHS(q, rhs)
		}
	})
}

// BenchmarkGPUModel measures the analytic GPU model itself.
func BenchmarkGPUModel(b *testing.B) {
	bench := opcount.Benchmark{Eq: opcount.ElasticRiemann, Refinement: 5}
	m := gpu.Model{Spec: params.TeslaV100, Impl: gpu.Fused}
	var t float64
	for i := 0; i < b.N; i++ {
		t = m.RunTime(bench, params.TimeStepsPerRun)
	}
	b.ReportMetric(t, "V100-fused-ER5-sec")
	_ = hostcpu.BaselineRunTime(bench, 1)
}
