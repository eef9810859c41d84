package wavepim

import (
	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/params"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/isa"
	"wavepim/internal/pim/sim"
)

// Options controls a timed benchmark run.
type Options struct {
	TimeSteps int  // simulation length; 0 means the paper's 1024
	Pipelined bool // apply the Section 6.3 pipeline (Figure 10)
	Morton    bool // Morton element placement (versus row-major)
	// Obs, when non-nil, receives the run's observability output: the
	// Figure 13 stage-pipeline spans (mirroring Result.Timeline), the
	// engine's instruction-class counters, and run-level gauges
	// (run.* namespace). Nil disables instrumentation.
	Obs *obs.Sink
}

// DefaultOptions returns the evaluation defaults.
func DefaultOptions() Options {
	return Options{TimeSteps: params.TimeStepsPerRun, Pipelined: true, Morton: true}
}

// Breakdown splits a run's time by activity class. Compute and
// IntraTransfer together are Figure 14's "intra-element" time;
// InterTransfer is its "inter-element" time.
type Breakdown struct {
	ComputeSec       float64 // in-block kernel execution
	IntraTransferSec float64 // within-element block-to-block movement
	InterTransferSec float64 // neighbor-element (flux) movement
	DRAMSec          float64 // off-chip batching traffic
	HostSec          float64 // host sqrt/inverse preprocessing (serial share)
}

// StagePhase is one span of the per-stage timeline (Figure 13).
type StagePhase struct {
	Name  string
	Start float64
	Dur   float64
}

// Result is the outcome of one timed run.
type Result struct {
	Plan          Plan
	Opts          Options
	FluxType      dg.FluxType
	StageSec      float64 // one RK stage, all batches
	StepSec       float64 // one time-step (five stages)
	TotalSec      float64 // whole run incl. setup
	DynamicJ      float64
	StaticJ       float64
	EnergyJ       float64
	Breakdown     Breakdown
	Timeline      []StagePhase // one batch's stage pipeline (Figure 13)
	InstrPerStage int64
	// Intercon is the congestion view of the priced stage: which
	// interconnect ran, how many transfers backpressured behind busy
	// switches, and the per-switch occupancy (seconds busy) of the tile
	// and chip fabrics.
	Intercon sim.InterconReport
}

// blockConstBytes is the off-chip size of one block's dshape, mask and
// constant rows.
const blockConstBytes = 3 * 1024

// FluxFor returns the flux solver of a benchmark: the acoustic group and
// the Elastic-Riemann group use the Riemann solver (whose sqrt/inverse
// preprocessing the host serves); Elastic-Central uses the central solver.
func FluxFor(eq opcount.Equation) dg.FluxType {
	if eq == opcount.ElasticCentral {
		return dg.CentralFlux
	}
	return dg.RiemannFlux
}

// Run times one benchmark on one chip configuration.
func Run(b opcount.Benchmark, cfg chip.Config, opt Options) (Result, error) {
	plan, err := MakePlan(b, cfg)
	if err != nil {
		return Result{}, err
	}
	return RunPlan(plan, opt)
}

// RunPlan times a pre-built plan (used by ablation benches that force
// non-default layouts or placements).
func RunPlan(plan Plan, opt Options) (Result, error) {
	if opt.TimeSteps <= 0 {
		opt.TimeSteps = params.TimeStepsPerRun
	}
	r := newRunner(plan, opt)
	return r.run()
}

// ---------------------------------------------------------------------------

type runner struct {
	plan  Plan
	opt   Options
	comp  *Compiler
	eng   *sim.Engine
	place *Placement
	np    int
	nn    int

	// Batch geometry.
	ea     int // elements per axis in x and y
	slices int // z-slices resident per batch
	elems  int // elements per batch

	bd Breakdown
	tl []StagePhase
}

func newRunner(plan Plan, opt Options) *runner {
	ch, err := chip.New(plan.Chip)
	if err != nil {
		panic(err)
	}
	np := opcount.Np
	eng := sim.New(ch, false)
	eng.Obs = opt.Obs
	r := &runner{
		plan: plan, opt: opt,
		comp:   NewCompiler(plan, np, FluxFor(plan.Bench.Eq)),
		eng:    eng,
		np:     np,
		nn:     np * np * np,
		ea:     1 << plan.Bench.Refinement,
		slices: plan.SlicesPerBatch,
	}
	r.elems = r.ea * r.ea * r.slices
	r.place = NewPlacement(plan.Layout, r.ea, r.slices, opt.Morton)
	return r
}

// forEachElem iterates the batch's elements.
func (r *runner) forEachElem(fn func(ex, ey, ez int)) {
	for ez := 0; ez < r.slices; ez++ {
		for ey := 0; ey < r.ea; ey++ {
			for ex := 0; ex < r.ea; ex++ {
				fn(ex, ey, ez)
			}
		}
	}
}

// neighborSlot returns the slot of the face-f neighbor, wrapping at the
// batch boundary (z-boundary faces are really inter-batch; their data
// arrives via the Figure 7 DRAM slice load, and the wrapped on-chip
// transfer stands in for the same volume of movement).
func (r *runner) neighborSlot(ex, ey, ez int, f int) int {
	switch f {
	case 0:
		ex = (ex - 1 + r.ea) % r.ea
	case 1:
		ex = (ex + 1) % r.ea
	case 2:
		ey = (ey - 1 + r.ea) % r.ea
	case 3:
		ey = (ey + 1) % r.ea
	case 4:
		ez = (ez - 1 + r.slices) % r.slices
	case 5:
		ez = (ez + 1) % r.slices
	}
	return r.place.ElemSlot(ex, ey, ez)
}

// pairTransfers builds aggregated element-local transfers: for every batch
// element, move words from slot+srcOff to slot+dstOff.
func (r *runner) pairTransfers(pairs [][3]int) []sim.RowTransfer {
	out := make([]sim.RowTransfer, 0, len(pairs)*r.elems)
	r.forEachElem(func(ex, ey, ez int) {
		base := r.place.ElemSlot(ex, ey, ez)
		for _, p := range pairs {
			out = append(out, sim.RowTransfer{
				SrcBlock: base + p[0], DstBlock: base + p[1], Words: p[2]})
		}
	})
	return out
}

// fetchTransfers builds the neighbor fetches of one face: per element,
// move words from the neighbor's slot+srcOff to this element's slot+dstOff.
func (r *runner) fetchTransfers(face int, pairs [][3]int) []sim.RowTransfer {
	out := make([]sim.RowTransfer, 0, len(pairs)*r.elems)
	r.forEachElem(func(ex, ey, ez int) {
		me := r.place.ElemSlot(ex, ey, ez)
		nb := r.neighborSlot(ex, ey, ez, face)
		for _, p := range pairs {
			out = append(out, sim.RowTransfer{
				SrcBlock: nb + p[0], DstBlock: me + p[1], Words: p[2]})
		}
	})
	return out
}

// groupDur sums phase durations; groupEnergy sums their energy.
func groupDur(ps []sim.Phase) float64 {
	var d float64
	for _, p := range ps {
		d += p.Dur
	}
	return d
}

func groupEnergy(ps []sim.Phase) float64 {
	var e float64
	for _, p := range ps {
		e += p.EnergyJ
	}
	return e
}

// maxDur returns the longest duration among parallel phases.
func maxDur(ps []sim.Phase) float64 {
	var d float64
	for _, p := range ps {
		if p.Dur > d {
			d = p.Dur
		}
	}
	return d
}

// stagePieces prices every phase group of one RK stage for one batch.
type stagePieces struct {
	volume       []sim.Phase // sequential: intra transfers + block programs
	volumeIsXfer []bool
	fetch        [6]sim.Phase // per-face neighbor fetches
	flux         [6]sim.Phase // per-face compute
	gather       []sim.Phase  // expanded-acoustic pressure-piece gather
	gatherIsXfer []bool
	integ        sim.Phase
	host         sim.Phase
}

func (r *runner) price() stagePieces {
	var sp stagePieces
	e := r.eng
	n := r.elems
	np2 := r.np * r.np
	nn := r.nn
	flux := r.comp.Flux
	riemann := flux == dg.RiemannFlux

	addVol := func(p sim.Phase, isXfer bool) {
		sp.volume = append(sp.volume, p)
		sp.volumeIsXfer = append(sp.volumeIsXfer, isXfer)
	}

	if r.plan.Bench.Eq == opcount.Maxwell {
		// The extension benchmark: two compute blocks (E at slot 0, H at
		// slot 1) in a four-slot element.
		addVol(e.ExecTransfers("dup-fields", r.pairTransfers([][3]int{
			{0, 1, 3 * nn}, {1, 0, 3 * nn}})), true)
		addVol(e.ExecBlocksN("volume", r.comp.VolumeMaxwell(true), 2*n, 0), false)
		for f := 0; f < 6; f++ {
			sp.fetch[f] = e.ExecTransfers("fetch", r.fetchTransfers(f, [][3]int{
				{0, 0, 2 * np2}, {1, 0, 2 * np2}, // neighbor E and H -> my E block
				{0, 1, 2 * np2}, {1, 1, 2 * np2}, // and -> my H block
			}))
			fp := []sim.Phase{
				e.ExecBlocksN("flux-E", r.comp.FluxMaxwell(faceOf(f), true), n, 0),
				e.ExecBlocksN("flux-H", r.comp.FluxMaxwell(faceOf(f), false), n, 0),
			}
			sp.flux[f] = sim.Phase{Name: "flux", Kind: "blocks", Dur: maxDur(fp), EnergyJ: groupEnergy(fp)}
		}
		sp.integ = e.ExecBlocksN("integration", r.comp.IntegrationElastic(0), 2*n, 0)
		sp.host = e.ExecHost("host-preprocess", n, 2*n)
		return sp
	}

	switch r.plan.Layout {
	case AcousticOneBlock:
		addVol(e.ExecBlocksN("volume", r.comp.VolumeOneBlock(), n, 0), false)
		for f := 0; f < 6; f++ {
			sp.fetch[f] = e.ExecTransfers("fetch", r.fetchTransfers(f, [][3]int{{0, 0, 4 * np2}}))
			sp.flux[f] = e.ExecBlocksN("flux", r.comp.FluxOneBlock(faceOf(f)), n, 0)
		}
		sp.integ = e.ExecBlocksN("integration", r.comp.IntegrationOneBlock(0), n, 0)

	case AcousticFourBlock:
		addVol(e.ExecTransfers("dup-p", r.pairTransfers([][3]int{{0, 1, nn}, {0, 2, nn}, {0, 3, nn}})), true)
		// The three axis templates have identical cost, and the three axis
		// blocks run concurrently: duration of one template, energy of 3n.
		addVol(e.ExecBlocksN("volume-v", r.comp.VolumeVBlock(0), 3*n, 0), false)
		addVol(e.ExecTransfers("div-pieces", r.pairTransfers([][3]int{{1, 0, nn}, {2, 0, nn}, {3, 0, nn}})), true)
		addVol(e.ExecBlocksN("volume-p", r.comp.VolumePBlock(), n, 0), false)
		for f := 0; f < 6; f++ {
			a := f / 2
			sp.fetch[f] = e.ExecTransfers("fetch", r.fetchTransfers(f, [][3]int{
				{0, 1 + a, np2},     // neighbor p -> my axis block
				{1 + a, 1 + a, np2}, // neighbor v[a] -> my axis block
			}))
			sp.flux[f] = e.ExecBlocksN("flux", r.comp.FluxVBlock(faceOf(f), f%2 == 0), n, 0)
		}
		sp.gather = append(sp.gather,
			e.ExecTransfers("flux-p-pieces", r.pairTransfers([][3]int{{1, 0, nn}, {2, 0, nn}, {3, 0, nn}})),
			e.ExecBlocksN("flux-p-gather", r.comp.FluxPBlockGather(), n, 0))
		sp.gatherIsXfer = []bool{true, false}
		sp.integ = e.ExecBlocksN("integration", r.comp.IntegrationExpanded(0), 4*n, 0)

	case ElasticFourBlock:
		addVol(e.ExecTransfers("dup-vars", r.pairTransfers([][3]int{
			{2, 0, 3 * nn}, {2, 1, 3 * nn}, {0, 2, 3 * nn}, {1, 2, 3 * nn}})), true)
		bd := r.comp.VolumeElasticDiag()
		bs := r.comp.VolumeElasticShear()
		bv := r.comp.VolumeElasticVel()
		pieces := []sim.Phase{
			e.ExecBlocksN("volume-diag", bd, n, 0),
			e.ExecBlocksN("volume-shear", bs, n, 0),
			e.ExecBlocksN("volume-vel", bv, n, 0),
		}
		addVol(sim.Phase{Name: "volume", Kind: "blocks", Dur: maxDur(pieces), EnergyJ: groupEnergy(pieces)}, false)
		for f := 0; f < 6; f++ {
			pairs := [][3]int{
				{2, 0, np2},     // neighbor v[a] -> Bd
				{2, 1, 2 * np2}, // neighbor v[j] -> Bs
				{0, 2, np2},     // neighbor sigma diag -> Bv
				{1, 2, 2 * np2}, // neighbor sigma shear -> Bv
			}
			if riemann {
				pairs = append(pairs,
					[3]int{0, 0, np2},     // neighbor sigma_aa -> Bd
					[3]int{1, 1, 2 * np2}, // neighbor sigma_aj -> Bs
					[3]int{2, 2, 3 * np2}) // neighbor v -> Bv
			}
			sp.fetch[f] = e.ExecTransfers("fetch", r.fetchTransfers(f, pairs))
			fp := []sim.Phase{
				e.ExecBlocksN("flux-diag", r.comp.FluxElasticDiag(faceOf(f)), n, 0),
				e.ExecBlocksN("flux-shear", r.comp.FluxElasticShear(faceOf(f)), n, 0),
				e.ExecBlocksN("flux-vel", r.comp.FluxElasticVel(faceOf(f)), n, 0),
			}
			sp.flux[f] = sim.Phase{Name: "flux", Kind: "blocks", Dur: maxDur(fp), EnergyJ: groupEnergy(fp)}
		}
		sp.integ = e.ExecBlocksN("integration", r.comp.IntegrationElastic(0), 3*n, 0)

	case ElasticTwelveBlock:
		var dup [][3]int
		for a := 0; a < 3; a++ { // diag blocks need all three velocities
			for v := 0; v < 3; v++ {
				dup = append(dup, [3]int{6 + v, a, nn})
			}
		}
		shearVels := [3][2]int{{0, 1}, {0, 2}, {1, 2}}
		for k, sv := range shearVels { // shear blocks need two velocities
			dup = append(dup, [3]int{6 + sv[0], 3 + k, nn}, [3]int{6 + sv[1], 3 + k, nn})
		}
		sigmaOf := [3][3]int{{0, 3, 4}, {3, 1, 5}, {4, 5, 2}} // slot of sigma_{i,axis}
		for i := 0; i < 3; i++ {                              // velocity blocks need sigma_i*
			for a := 0; a < 3; a++ {
				dup = append(dup, [3]int{sigmaOf[i][a], 6 + i, nn})
			}
		}
		addVol(e.ExecTransfers("dup-vars", r.pairTransfers(dup)), true)
		pieces := []sim.Phase{
			e.ExecBlocksN("volume-diag", r.comp.Volume12Diag(0), 3*n, 0),
			e.ExecBlocksN("volume-shear", r.comp.Volume12Shear(0, 1), 3*n, 0),
			e.ExecBlocksN("volume-vel", r.comp.Volume12Vel(), 3*n, 0),
		}
		addVol(sim.Phase{Name: "volume", Kind: "blocks", Dur: maxDur(pieces), EnergyJ: groupEnergy(pieces)}, false)
		for f := 0; f < 6; f++ {
			a := f / 2
			var pairs [][3]int
			for d := 0; d < 3; d++ { // three diag blocks fetch neighbor v[a]
				pairs = append(pairs, [3]int{6 + a, d, np2})
				if riemann {
					pairs = append(pairs, [3]int{a, d, np2})
				}
			}
			for k, sv := range shearVels { // participating shear blocks
				if sv[0] == a || sv[1] == a {
					j := sv[0] + sv[1] - a
					pairs = append(pairs, [3]int{6 + j, 3 + k, np2})
					if riemann {
						pairs = append(pairs, [3]int{3 + k, 3 + k, np2})
					}
				}
			}
			for i := 0; i < 3; i++ { // velocity blocks fetch sigma_ia
				pairs = append(pairs, [3]int{sigmaOf[i][a], 6 + i, np2})
				if riemann {
					pairs = append(pairs, [3]int{6 + i, 6 + i, np2})
				}
			}
			sp.fetch[f] = e.ExecTransfers("fetch", r.fetchTransfers(f, pairs))
			sp.flux[f] = e.ExecBlocksN("flux", r.comp.Flux12Var(faceOf(f)), 9*n, 0)
		}
		sp.integ = e.ExecBlocksN("integration", r.comp.IntegrationExpanded(0), 9*n, 0)
	}

	// Host preprocessing (Section 4.3): sqrt and inverse units for the
	// Riemann flux coefficients plus the 1/rho inverses.
	var sqrts, invs int
	switch {
	case r.plan.Bench.Eq == opcount.Acoustic:
		sqrts, invs = n, 2*n
	case riemann:
		sqrts, invs = 2*n, 4*n
	default:
		sqrts, invs = 0, n
	}
	sp.host = e.ExecHost("host-preprocess", sqrts, invs)
	return sp
}

func faceOf(f int) mesh.Face { return mesh.Face(f) }

// run assembles the full-run timing from one priced stage.
func (r *runner) run() (Result, error) {
	sp := r.price()
	res := Result{Plan: r.plan, Opts: r.opt, FluxType: r.comp.Flux}

	// --- One batch's stage time and energy ---
	volDur := groupDur(sp.volume)
	gatherDur := groupDur(sp.gather)
	fetchMinus := sp.fetch[0].Dur + sp.fetch[2].Dur + sp.fetch[4].Dur
	fetchPlus := sp.fetch[1].Dur + sp.fetch[3].Dur + sp.fetch[5].Dur
	fluxMinus := sp.flux[0].Dur + sp.flux[2].Dur + sp.flux[4].Dur
	fluxPlus := sp.flux[1].Dur + sp.flux[3].Dur + sp.flux[5].Dur

	var stage float64
	if r.opt.Pipelined {
		// Figure 10: minus-direction fetch and host preprocessing overlap
		// Volume; plus-direction fetch overlaps minus-direction compute.
		t1 := max3(volDur, fetchMinus, sp.host.Dur)
		t2 := maxf(fluxMinus, fetchPlus)
		stage = t1 + t2 + fluxPlus + gatherDur + sp.integ.Dur
		r.timeline(sp, volDur, fetchMinus, fluxMinus, fetchPlus, fluxPlus, gatherDur)
	} else {
		stage = volDur + sp.host.Dur +
			fetchMinus + fluxMinus + fetchPlus + fluxPlus +
			gatherDur + sp.integ.Dur
	}

	var dynamic float64
	for _, p := range sp.volume {
		dynamic += p.EnergyJ
	}
	for f := 0; f < 6; f++ {
		dynamic += sp.fetch[f].EnergyJ + sp.flux[f].EnergyJ
	}
	dynamic += groupEnergy(sp.gather) + sp.integ.EnergyJ + sp.host.EnergyJ

	// --- Breakdown (per stage, one batch) ---
	for i, p := range sp.volume {
		if sp.volumeIsXfer[i] {
			r.bd.IntraTransferSec += p.Dur
		} else {
			r.bd.ComputeSec += p.Dur
		}
	}
	for i, p := range sp.gather {
		if sp.gatherIsXfer[i] {
			r.bd.IntraTransferSec += p.Dur
		} else {
			r.bd.ComputeSec += p.Dur
		}
	}
	for f := 0; f < 6; f++ {
		r.bd.InterTransferSec += sp.fetch[f].Dur
		r.bd.ComputeSec += sp.flux[f].Dur
	}
	r.bd.ComputeSec += sp.integ.Dur
	r.bd.HostSec = sp.host.Dur

	// --- Batching DRAM traffic (Figure 6/7) ---
	nvars := int64(r.plan.Bench.Eq.NumVars())
	stateBytes := int64(r.elems) * int64(r.nn) * nvars * 2 * 4 // variables + auxiliaries
	var dramPerStage float64
	if r.plan.Batches > 1 {
		// Per batch per stage: store previous outputs, load next inputs,
		// plus the extra inter-batch slice load of the Figure 7 flux
		// schedule.
		sliceBytes := int64(r.ea*r.ea) * int64(r.nn) * nvars * 4
		ph := r.eng.ExecDRAM("batch-swap", 2*stateBytes+sliceBytes)
		dramPerStage = ph.Dur
		dynamic += ph.EnergyJ
		r.bd.DRAMSec = ph.Dur
	}

	batches := float64(r.plan.Batches)
	stageAll := (stage + dramPerStage) * batches
	res.StageSec = stageAll
	res.StepSec = stageAll * dg.NumStages
	res.InstrPerStage = r.eng.InstrCount

	// --- Setup: initial model load plus per-block constant/LUT loading ---
	constBytes := int64(r.plan.BlocksUsed()) * blockConstBytes
	setup := r.eng.ExecDRAM("setup-load", stateBytes*int64(r.plan.Batches)+constBytes)
	lutProg := make([]isa.Instr, 0, 24)
	for f := 0; f < 24; f++ {
		lutProg = append(lutProg, isa.Instr{Op: isa.OpLUT, Row: 0, SrcOff: 0, LUTBlock: 0, DstOff: 1})
	}
	lut := r.eng.ExecBlocksN("lut-consts", lutProg, r.plan.BlocksUsed(), 3)
	setupDur := setup.Dur + lut.Dur
	setupEnergy := setup.EnergyJ + lut.EnergyJ

	steps := float64(r.opt.TimeSteps)
	res.TotalSec = setupDur + steps*res.StepSec
	res.DynamicJ = setupEnergy + steps*dg.NumStages*batches*dynamic
	res.StaticJ = chip.SystemPowerW(r.plan.Chip) * res.TotalSec
	res.EnergyJ = res.DynamicJ + res.StaticJ

	// Scale the per-stage breakdown to the full run.
	scale := steps * dg.NumStages * batches
	res.Breakdown = Breakdown{
		ComputeSec:       r.bd.ComputeSec * scale,
		IntraTransferSec: r.bd.IntraTransferSec * scale,
		InterTransferSec: r.bd.InterTransferSec * scale,
		DRAMSec:          r.bd.DRAMSec * scale,
		HostSec:          r.bd.HostSec * scale,
	}
	res.Timeline = r.tl
	res.Intercon = r.eng.InterconReport()
	r.publish(res)
	return res, nil
}

// publish exports the run's observability output: one span per Figure 13
// stage-pipeline phase (identical to Result.Timeline, so a Chrome trace of
// the run shows the Volume/Flux/Integration execution timeline) and
// run-level gauges. No-op without a sink.
func (r *runner) publish(res Result) {
	sink := r.opt.Obs
	if sink == nil {
		return
	}
	for _, sp := range res.Timeline {
		sink.Span(sp.Name, "stage", sp.Start, sp.Dur, 5)
	}
	reg := sink.Reg
	reg.Gauge("run.stage_seconds").Set(res.StageSec)
	reg.Gauge("run.step_seconds").Set(res.StepSec)
	reg.Gauge("run.total_seconds").Set(res.TotalSec)
	reg.Gauge("run.dynamic_joules").Set(res.DynamicJ)
	reg.Gauge("run.static_joules").Set(res.StaticJ)
	reg.Gauge("run.energy_joules").Set(res.EnergyJ)
	reg.Gauge("run.instr_per_stage").Set(float64(res.InstrPerStage))
	reg.Gauge("run.batches").Set(float64(r.plan.Batches))
	reg.Gauge("run.breakdown.compute_seconds").Set(res.Breakdown.ComputeSec)
	reg.Gauge("run.breakdown.intra_transfer_seconds").Set(res.Breakdown.IntraTransferSec)
	reg.Gauge("run.breakdown.inter_transfer_seconds").Set(res.Breakdown.InterTransferSec)
	reg.Gauge("run.breakdown.dram_seconds").Set(res.Breakdown.DRAMSec)
	reg.Gauge("run.breakdown.host_seconds").Set(res.Breakdown.HostSec)
	r.eng.PublishTotals()
}

// timeline lays out one batch-stage's Figure 13 pipeline spans.
func (r *runner) timeline(sp stagePieces, vol, fetchM, fluxM, fetchP, fluxP, gather float64) {
	t1 := max3(vol, fetchM, sp.host.Dur)
	t2 := maxf(fluxM, fetchP)
	r.tl = []StagePhase{
		{Name: "Volume", Start: 0, Dur: vol},
		{Name: "CPU Host sqrt/inverse", Start: 0, Dur: sp.host.Dur},
		{Name: "Flux (-1) data fetch", Start: 0, Dur: fetchM},
		{Name: "Flux (-1) compute", Start: t1, Dur: fluxM},
		{Name: "Flux (+1) data fetch", Start: t1, Dur: fetchP},
		{Name: "Flux (+1) compute", Start: t1 + t2, Dur: fluxP},
		{Name: "Integration", Start: t1 + t2 + fluxP + gather, Dur: sp.integ.Dur},
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max3(a, b, c float64) float64 { return maxf(a, maxf(b, c)) }
