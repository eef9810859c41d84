package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"wavepim/internal/dg/opcount"
	"wavepim/internal/experiments"
	"wavepim/internal/pim/chip"
	"wavepim/internal/wavepim"
)

// sweepCell is one paper benchmark on one chip configuration.
type sweepCell struct {
	b   opcount.Benchmark
	cfg chip.Config
}

// paperCells are the paper's six benchmarks (acoustic, elastic-central
// and elastic-riemann at refinement levels 4 and 5) on the four chips.
func paperCells() []sweepCell {
	var cs []sweepCell
	for _, b := range opcount.AllBenchmarks() {
		for _, cfg := range chip.AllConfigs() {
			cs = append(cs, sweepCell{b, cfg})
		}
	}
	return cs
}

// sweepSetup is the timed runner's set-up as a user pays it: the first
// wavepim.Run in a fresh process (Acoustic_4 on the 2 GB chip, the
// quickstart's cell), which plans, compiles and prices from nothing.
func sweepSetup(uint64) (setupSample, error) {
	t := time.Now()
	_, err := wavepim.Run(opcount.Benchmark{Eq: opcount.Acoustic, Refinement: 4}, chip.Config2GB(), wavepim.DefaultOptions())
	return setupSample{Seconds: time.Since(t).Seconds()}, err
}

// runPaperSweep times wavepim.Run, the analytic timed runner behind the
// paper's figures, on every cell at the paper's 1024 steps. It calls
// wavepim.Run directly because the experiments package memoizes runs.
// One operation is one cell; the cell order is shuffled by the seed, and
// a run always measures whole sweeps.
func runPaperSweep(e *env) (*outcome, error) {
	o := newOutcome()
	var samples []setupSample
	if e.setupRuns > 1 {
		var err error
		if samples, err = e.childSetups(e.setupRuns - 1); err != nil {
			return nil, err
		}
	}
	own, err := sweepSetup(e.seed)
	if err != nil {
		return nil, err
	}
	o.recordSetup(append(samples, own))

	// Warm-up: one pass over every cell through the memoized runner,
	// which also gives the reproduction's headline numbers.
	h := experiments.Headline()
	fmt.Fprintf(e.log, "  headline: %.2fx speedup (paper 41.98x, error %+.1f%%), %.2fx energy savings (paper 12.66x, error %+.1f%%)\n",
		h.AvgSpeedup, 100*(h.AvgSpeedup/41.98-1), h.AvgEnergy, 100*(h.AvgEnergy/12.66-1))

	cells := paperCells()
	order := rand.New(rand.NewPCG(e.seed, 2)).Perm(len(cells))
	results := make([]wavepim.Result, len(cells))
	sweeps := map[goldenEntry]int{}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	m, err := e.measure(len(cells), func(i int) string {
		c := cells[order[i%len(cells)]]
		return "wavepim.Run/" + c.b.Name() + "/" + c.cfg.Name
	}, func(i int) error {
		k := order[i%len(cells)]
		r, err := wavepim.Run(cells[k].b, cells[k].cfg, wavepim.DefaultOptions())
		results[k] = r
		if err == nil && i%len(cells) == len(cells)-1 {
			sweeps[sweepEntry(results)]++
		}
		return err
	})
	runtime.ReadMemStats(&mem1)
	ops := m.all()
	o.attempted = len(ops)
	if err != nil {
		o.failed = 1
		o.check(fmt.Errorf("cell %d: %w", len(ops), err))
		return o, nil
	}
	o.e2e["rss_mb"] = m.rssMB
	e.recordOps(o, m.bare)
	var sweepS []float64
	for i := 0; i+len(cells) <= len(ops); i += len(cells) {
		sweepS = append(sweepS, sum(ops[i:i+len(cells)])/1000)
	}
	fmt.Fprintf(e.log, "  sweeps: n=%d median %.3f s\n", len(sweepS), median(sweepS))

	// Every sweep must price every cell identically, on every seed.
	if len(sweeps) != 1 {
		o.check(fmt.Errorf("%d sweeps gave %d different results", len(sweepS), len(sweeps)))
	}
	for g := range sweeps {
		o.check(e.golden.check("paper_sweep", g))
	}

	var instr, xfer float64
	for _, r := range results {
		instr += float64(r.InstrPerStage)
		xfer += float64(r.Intercon.Transfers)
	}
	n := float64(len(cells))
	o.layer["sim.instr_per_op"] = instr / n
	o.layer["sim.transfers_per_op"] = xfer / n
	o.layer["sim.host_ns_per_event"] = sum(ops) * 1e6 / (float64(len(ops)) * (instr + xfer) / n)
	o.layer["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / float64(len(ops))
	o.layer["runtime.alloc_mb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(len(ops)) / (1 << 20)
	if e.traced {
		ms := float64(m.wall) / float64(time.Millisecond)
		if err := e.finishTrace(o, ms, false, m.bare, m.traced, []string{filepath.Join(e.outDir, "cpu.pprof")}); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepEntry digests one sweep's results in cell order: every timing,
// energy and count the runner reports, bit for bit.
func sweepEntry(rs []wavepim.Result) goldenEntry {
	h := fnv.New64a()
	word := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	var sim, energy float64
	for _, r := range rs {
		fmt.Fprintf(h, "%s|%s|", r.Plan.Bench.Name(), r.Plan.Chip.Name)
		bd := r.Breakdown
		for _, v := range []float64{r.TotalSec, r.StepSec, r.StageSec, r.DynamicJ, r.StaticJ, r.EnergyJ,
			bd.ComputeSec, bd.IntraTransferSec, bd.InterTransferSec, bd.DRAMSec, bd.HostSec, r.Intercon.BackpressureSec} {
			word(math.Float64bits(v))
		}
		word(uint64(r.InstrPerStage))
		word(uint64(r.Intercon.Transfers))
		word(uint64(r.Intercon.Backpressured))
		for _, p := range r.Timeline {
			fmt.Fprintf(h, "%s|", p.Name)
			word(math.Float64bits(p.Start))
			word(math.Float64bits(p.Dur))
		}
		sim += r.TotalSec
		energy += r.EnergyJ
	}
	return goldenEntry{Config: "6 paper benchmarks x 4 chips, 1024 steps",
		Digest: fmt.Sprintf("%016x", h.Sum64()), SimSeconds: sim, EnergyJ: energy}
}
