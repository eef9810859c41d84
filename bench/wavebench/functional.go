package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/pim/nor"
	"wavepim/internal/wavepim"
)

// functionalSpec is a workload that steps a functional Session: every
// value lives in simulated crossbar cells and every kernel runs as
// compiled PIM instructions. One operation is one five-stage time step.
type functionalSpec struct {
	name      string
	eq        opcount.Equation
	refine    int     // (2^refine)^3 elements
	np        int     // GLL nodes per axis
	slabWords int     // > 0: every fp32 add and multiply runs gate by gate on a NOR slab this many words wide
	warmup    int     // steps before measuring; the first belongs to set-up
	tol       float64 // largest relative deviation per step from the float64 reference (host-float runs)
}

var (
	// Compute-heavy: 64 paper-sized (512-node) elements, one block each;
	// block execution dominates the profile.
	acousticFunctional = functionalSpec{name: "acoustic_functional", eq: opcount.Acoustic,
		refine: 2, np: 8, warmup: 3, tol: 1.5e-7}
	// Transfer-heavy: 8 paper-sized elements on the four-block elastic
	// layout move far more data between blocks than they compute.
	elasticFunctional = functionalSpec{name: "elastic_functional", eq: opcount.ElasticRiemann,
		refine: 1, np: 8, warmup: 3, tol: 1.5e-7}
	// Gate-level: the JobSpec default problem with NOR-slab arithmetic at
	// the default slab width, the only workload that runs the NOR
	// substrate. Its 64-node rows fill 1/8 of the 512-lane slab.
	norFunctional = functionalSpec{name: "nor_functional", eq: opcount.Acoustic,
		refine: 1, np: 4, slabWords: nor.DefaultSlabWords, warmup: 2}
)

func (f functionalSpec) workload() workload {
	return workload{name: f.name, run: f.run, setup: func(seed uint64) (setupSample, error) {
		_, _, s, err := f.coldSetup(seed)
		return s, err
	}}
}

// config names what the workload simulates, for the golden file.
func (f functionalSpec) config() string {
	return fmt.Sprintf("%v refine=%d np=%d slab=%d warmup=%d", f.eq, f.refine, f.np, f.slabWords, f.warmup)
}

var (
	water = material.Acoustic{Kappa: 2.25, Rho: 1}
	rock  = material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
)

// problem is a functional workload's input: the mesh, the time step from
// the reference solver's CFL bound, and a seeded initial state, the sum
// of three travelling plane waves with seeded axis, wavenumber, amplitude
// and phase. The seed changes the values only, never the work.
type problem struct {
	f  functionalSpec
	m  *mesh.Mesh
	dt float64
	ac *dg.AcousticState // acoustic input, or nil
	el *dg.ElasticState  // elastic input, or nil

	acSolver *dg.AcousticSolver
	elSolver *dg.ElasticSolver
}

func newProblem(f functionalSpec, seed uint64) *problem {
	m := mesh.New(f.refine, f.np, true)
	p := &problem{f: f, m: m}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	type mode struct {
		axis, k    int
		amp, phase float64
	}
	modes := make([]mode, 3)
	for i := range modes {
		modes[i] = mode{rng.IntN(3), 1 + rng.IntN(2), 0.5 + 0.5*rng.Float64(), 2 * math.Pi * rng.Float64()}
	}
	// each calls add(node index, axis, s) for every mode's value s at every node.
	each := func(add func(i, axis int, s float64)) {
		for e := 0; e < m.NumElem; e++ {
			for n := 0; n < m.NodesPerEl; n++ {
				x, y, z := m.NodePosition(e, n)
				pos := [3]float64{x, y, z}
				for _, md := range modes {
					add(e*m.NodesPerEl+n, md.axis, md.amp*math.Sin(2*math.Pi*float64(md.k)*pos[md.axis]+md.phase))
				}
			}
		}
	}
	flux := wavepim.FluxFor(f.eq)
	if f.eq == opcount.Acoustic {
		p.acSolver = dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, water), flux)
		p.dt = p.acSolver.MaxStableDt(0.3)
		p.ac = dg.NewAcousticState(m)
		z := water.Impedance()
		each(func(i, axis int, s float64) {
			p.ac.P[i] += s
			p.ac.V[axis][i] += s / z
		})
		return p
	}
	p.elSolver = dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, rock), flux)
	p.dt = p.elSolver.MaxStableDt(0.3)
	p.el = dg.NewElasticState(m)
	cp := rock.PWaveSpeed()
	each(func(i, axis int, s float64) { // a P wave along axis
		p.el.V[axis][i] += s
		for d := 0; d < 3; d++ { // SXX, SYY, SZZ are stress components 0..2
			if d == axis {
				p.el.S[d][i] += -rock.Rho * cp * s
			} else {
				p.el.S[d][i] += -(rock.Lambda / cp) * s
			}
		}
	})
	return p
}

// newSession builds a session for the problem with the engine's default
// worker pool, one worker per core, as callers run it.
func (p *problem) newSession(slabWords int) (*wavepim.Session, error) {
	opts := []wavepim.Option{wavepim.WithEquation(p.f.eq), wavepim.WithMesh(p.m), wavepim.WithDt(p.dt)}
	if slabWords > 0 {
		opts = append(opts, wavepim.WithNORSlab(slabWords))
	}
	return wavepim.NewSession(opts...)
}

func (p *problem) load(s *wavepim.Session) {
	if p.ac != nil {
		s.Acoustic().Load(p.ac)
	} else {
		s.Elastic().Load(p.el)
	}
}

// read returns the session's current field, one slice per variable.
func (p *problem) read(s *wavepim.Session) [][]float64 {
	if p.ac != nil {
		q := dg.NewAcousticState(p.m)
		s.Acoustic().ReadState(q)
		return q.Slices()
	}
	q := dg.NewElasticState(p.m)
	s.Elastic().ReadState(q)
	return q.Slices()
}

// reference integrates the input with the float64 dg solver.
func (p *problem) reference(steps int) [][]float64 {
	if p.ac != nil {
		q := p.ac.Copy()
		dg.NewAcousticIntegrator(p.acSolver).Run(q, 0, p.dt, steps)
		return q.Slices()
	}
	q := p.el.Copy()
	dg.NewElasticIntegrator(p.elSolver).Run(q, 0, p.dt, steps)
	return q.Slices()
}

// coldSetup is one set-up as a user pays it: the reference solver's time
// step and the initial field, a session built with an empty plan cache,
// the load, and the first step (which also materializes the blocks).
func (f functionalSpec) coldSetup(seed uint64) (*problem, *wavepim.Session, setupSample, error) {
	t0 := time.Now()
	p := newProblem(f, seed)
	t1 := time.Now()
	s, err := p.newSession(f.slabWords)
	if err != nil {
		return nil, nil, setupSample{}, err
	}
	if s.PlanCacheHit() {
		return nil, nil, setupSample{}, fmt.Errorf("set-up found a warm plan cache")
	}
	t2 := time.Now()
	p.load(s)
	t3 := time.Now()
	s.Step()
	if err := s.Engine().Err(); err != nil {
		return nil, nil, setupSample{}, err
	}
	t4 := time.Now()
	ms := func(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }
	return p, s, setupSample{Seconds: t4.Sub(t0).Seconds(), PartsMs: map[string]float64{
		"dg.setup_ms":             ms(t0, t1),
		"wavepim.session_cold_ms": ms(t1, t2),
		"wavepim.load_ms":         ms(t2, t3),
		"wavepim.first_step_ms":   ms(t3, t4),
	}}, nil
}

func (f functionalSpec) run(e *env) (*outcome, error) {
	o := newOutcome()
	var samples []setupSample
	if e.setupRuns > 1 {
		var err error
		if samples, err = e.childSetups(e.setupRuns - 1); err != nil {
			return nil, err
		}
	}
	p, s, own, err := f.coldSetup(e.seed)
	if err != nil {
		return nil, err
	}
	o.recordSetup(append(samples, own))
	eng := s.Engine()
	for i := 1; i < f.warmup; i++ {
		s.Step()
	}
	if err := eng.Err(); err != nil {
		return nil, err
	}
	// The simulated timeline after a fixed number of steps depends on the
	// configuration only, not on the seeded field values.
	o.check(e.golden.check(f.name, goldenEntry{Config: f.config(),
		Digest: fmt.Sprintf("%016x", eng.TimelineDigest()), SimSeconds: eng.TotalTime(), EnergyJ: eng.TotalEnergy}))
	// Simulated work per step, counted exactly over the warm-up steps.
	// NOR gate evaluations depend on the operand values, so they repeat
	// for a given seed only.
	w := float64(f.warmup)
	instr, xfer := float64(eng.InstrCount)/w, float64(eng.TransferCt)/w
	o.layer["sim.instr_per_op"] = instr
	o.layer["sim.transfers_per_op"] = xfer
	o.layer["nor.gate_evals_per_op"] = float64(eng.NORGateStats().NOREvals) / w

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	m, err := e.measure(1, func(int) string { return "wavepim.Session.Step" }, func(int) error {
		s.Step()
		return eng.Err()
	})
	runtime.ReadMemStats(&mem1)
	ops := m.all()
	o.attempted = len(ops)
	if err != nil {
		o.failed = 1
		o.check(fmt.Errorf("step %d: %w", f.warmup+len(ops), err))
		return o, nil
	}
	o.e2e["rss_mb"] = m.rssMB
	e.recordOps(o, m.bare)

	n := float64(len(ops))
	o.layer["sim.host_ns_per_event"] = sum(ops) * 1e6 / n / (instr + xfer)
	o.layer["runtime.allocs_per_op"] = float64(mem1.Mallocs-mem0.Mallocs) / n
	o.layer["runtime.alloc_mb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / n / (1 << 20)

	t := time.Now()
	got := p.read(s)
	o.layer["wavepim.readstate_ms"] = msSince(t)

	steps := f.warmup + len(ops)
	if f.slabWords > 0 {
		o.check(p.matchHostFloat(got, steps))
	} else {
		o.check(p.matchReference(got, steps, f.tol, e))
	}
	if e.traced {
		if f.slabWords > 0 {
			for _, k := range []int{1, 8} {
				o.layer[fmt.Sprintf("nor.add_ns_per_lane_k%d", k)] = norLaneNs(k, false, e.seed)
				o.layer[fmt.Sprintf("nor.mul_ns_per_lane_k%d", k)] = norLaneNs(k, true, e.seed)
			}
		}
		ms := float64(m.wall) / float64(time.Millisecond)
		if err := e.finishTrace(o, ms, false, m.bare, m.traced, []string{filepath.Join(e.outDir, "cpu.pprof")}); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// matchReference checks the functional field against the float64 dg
// reference integrator after the same steps: the largest deviation,
// relative to the reference's largest magnitude, must stay within
// tolPerStep for every step taken (float32 storage rounds every value the
// chip holds, and the rounding accumulates).
func (p *problem) matchReference(got [][]float64, steps int, tolPerStep float64, e *env) error {
	tol := tolPerStep * float64(steps)
	ref := p.reference(steps)
	var dev, mag float64
	for v := range ref {
		for i, r := range ref[v] {
			dev = math.Max(dev, math.Abs(got[v][i]-r))
			mag = math.Max(mag, math.Abs(r))
		}
	}
	rel := dev / mag
	fmt.Fprintf(e.log, "  reference: relative deviation %.3g after %d steps (limit %.3g)\n", rel, steps, tol)
	if !(rel <= tol) {
		return fmt.Errorf("field deviates from the dg reference by %.3g relative after %d steps (limit %.3g)", rel, steps, tol)
	}
	return nil
}

// matchHostFloat checks the NOR-slab field bit for bit against a
// host-float session run on the same input for the same steps.
func (p *problem) matchHostFloat(got [][]float64, steps int) error {
	s, err := p.newSession(0)
	if err != nil {
		return err
	}
	p.load(s)
	if err := s.Run(context.Background(), steps); err != nil {
		return err
	}
	want := p.read(s)
	for v := range want {
		for i := range want[v] {
			if math.Float64bits(got[v][i]) != math.Float64bits(want[v][i]) {
				return fmt.Errorf("NOR-slab field differs from host float at variable %d node %d after %d steps: %v vs %v",
					v, i, steps, got[v][i], want[v][i])
			}
		}
	}
	return nil
}

// norLaneNs times public SlabCircuit batch calls: nanoseconds per lane of
// one fp32 add (or multiply) at a slab width of k words, on seeded
// normally distributed operands.
func norLaneNs(k int, mul bool, seed uint64) float64 {
	c := nor.NewSlabCircuit(k)
	n := 4 * k * nor.Lanes
	rng := rand.New(rand.NewPCG(seed, 1))
	a, b, out := make([]uint32, n), make([]uint32, n), make([]uint32, n)
	for i := range a {
		a[i] = math.Float32bits(float32(rng.NormFloat64()))
		b[i] = math.Float32bits(float32(rng.NormFloat64()))
	}
	op := c.AddFP32Batch
	if mul {
		op = c.MulFP32Batch
	}
	op(a, b, out) // sizes the circuit's arena
	lanes := 0
	start := time.Now()
	for time.Since(start) < 100*time.Millisecond {
		op(a, b, out)
		lanes += n
	}
	return float64(time.Since(start)) / float64(lanes)
}
