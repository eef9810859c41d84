package hostcpu

import (
	"testing"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/params"
)

func TestBaselineRunTimePositiveAndOrdered(t *testing.T) {
	var prev float64
	for _, b := range opcount.AllBenchmarks() {
		tt := BaselineRunTime(b, params.TimeStepsPerRun)
		if tt <= 0 {
			t.Fatalf("%s: nonpositive CPU time", b.Name())
		}
		_ = prev
		prev = tt
	}
	// Bigger equations take longer at a fixed level.
	ac := BaselineRunTime(opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}, 64)
	er := BaselineRunTime(opcount.Benchmark{Eq: opcount.ElasticRiemann, Refinement: 4}, 64)
	if er <= ac {
		t.Error("elastic-Riemann should take longer than acoustic on the CPU")
	}
}

func TestLevel5LessEfficientThanLevel4(t *testing.T) {
	// Level 5 runs at lower efficiency (cache thrashing), so its time grows
	// superlinearly: more than 8x the level-4 time.
	b4 := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}
	b5 := opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 5}
	r := BaselineRunTime(b5, 64) / BaselineRunTime(b4, 64)
	if r <= 8 {
		t.Errorf("level5/level4 CPU time ratio %.2f, want > 8 (efficiency degradation)", r)
	}
}
