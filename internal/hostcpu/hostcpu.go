// Package hostcpu models the CPU baseline of the evaluation: the dual Xeon
// Platinum 8160 of Section 3.1, whose p4est-based reference implementation
// the paper's GPU speedups are measured against. The ARM Cortex-A72 host
// that feeds the PIM chip is priced by sim.Engine.ExecHost.
package hostcpu

import (
	"wavepim/internal/dg/opcount"
	"wavepim/internal/params"
)

// BaselineEff is the achieved fraction of the 48-core Xeon system's peak
// FP32 throughput for the paper's CPU reference implementation, by
// refinement level. These values are calibrated from the paper's own data:
// the published GPU speedups (94-369x over 48 Skylake cores, Section 3.1)
// imply a CPU code running at well under a GFLOP/s — the only information
// the paper provides about it — and the level-5 efficiency is lower
// because the larger model thrashes the cache hierarchy.
var BaselineEff = map[int]float64{
	4: 4.05e-5,
	5: 2.46e-5,
}

// BaselineRunTime returns the CPU reference implementation's duration for
// a benchmark (five stages per step).
func BaselineRunTime(b opcount.Benchmark, timeSteps int) float64 {
	eff, ok := BaselineEff[b.Refinement]
	if !ok {
		eff = BaselineEff[5]
	}
	flops := float64(opcount.OneLaunchEach(b).FLOPs) *
		float64(params.IntegrationStagesPerStep) * float64(timeSteps)
	return flops / (params.XeonPlatinum8160x2.PeakFP32FLOPS * eff)
}
