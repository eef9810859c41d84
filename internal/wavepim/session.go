package wavepim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/pim/chip"
	"wavepim/internal/pim/fault"
	"wavepim/internal/pim/intercon"
	"wavepim/internal/pim/sim"
	"wavepim/internal/pim/xbar"
)

// Session is the unified entry point to a functional Wave-PIM run. It owns
// the chip, the execution engine, the compiled solver for one equation, and
// the observability sink:
//
//	s, err := wavepim.NewSession(
//		wavepim.WithEquation(opcount.Acoustic),
//		wavepim.WithMesh(mesh.New(1, 4, true)),
//		wavepim.WithDt(1e-3),
//		wavepim.WithObs(obs.NewSink()),
//	)
//	s.Acoustic().Load(q)
//	err = s.Run(ctx, steps)
type Session struct {
	cfg sessionConfig
	sys *system
	eng *sim.Engine // sys.Engine

	// the typed view of sys: exactly one of these is non-nil, per cfg.eq
	ac *FunctionalAcoustic
	el *FunctionalElastic
	mx *FunctionalMaxwell

	// lastDump is the most recent automatic flight-recorder snapshot
	// (nil until a run fails with a dump-triggering error).
	lastDump *eventlog.FlightDump
}

type sessionConfig struct {
	eq        opcount.Equation
	mesh      *mesh.Mesh
	flux      dg.FluxType
	fluxSet   bool
	dt        float64
	chip      *chip.Config
	workers   int
	slabWords int
	topoName  string
	topoSet   bool
	sink      *obs.Sink
	acMat     material.Acoustic
	elMat     material.Elastic
	diel      material.Dielectric

	faults   *fault.Config
	recovery *fault.Recovery

	runID         string
	traceID       string
	log           *eventlog.Logger
	flight        *eventlog.FlightRecorder
	flightTo      io.Writer
	progressEvery int
}

// Option configures a Session (functional-options style).
type Option func(*sessionConfig)

// WithEquation selects the wave equation (default opcount.Acoustic). The
// elastic flux variant is part of the equation: opcount.ElasticCentral
// selects the central flux, every other equation defaults to Riemann
// (override with WithFlux).
func WithEquation(eq opcount.Equation) Option {
	return func(c *sessionConfig) { c.eq = eq }
}

// WithMesh sets the periodic benchmark mesh. Required.
func WithMesh(m *mesh.Mesh) Option {
	return func(c *sessionConfig) { c.mesh = m }
}

// WithFlux overrides the flux solver implied by the equation.
func WithFlux(f dg.FluxType) Option {
	return func(c *sessionConfig) { c.flux = f; c.fluxSet = true }
}

// WithDt sets the time-step. Required (use the reference solver's
// MaxStableDt to derive a CFL-stable value).
func WithDt(dt float64) Option {
	return func(c *sessionConfig) { c.dt = dt }
}

// WithChip pins the chip configuration instead of letting the session pick
// the smallest one that fits the model. A model larger than the pinned
// chip folds through it in batches of whole z-slices (Section 6.1);
// construction fails only if the chip cannot hold one slice.
func WithChip(cfg chip.Config) Option {
	return func(c *sessionConfig) { c.chip = &cfg }
}

// ErrUnknownTopology reports a WithTopology name outside intercon.Names().
// It is the intercon sentinel re-exported so callers can errors.Is against
// either package.
var ErrUnknownTopology = intercon.ErrUnknownTopology

// WithTopology selects the tile interconnect by name — one of
// intercon.Names(): "htree" (the paper's default), "bus", "mesh", "torus",
// "flatfly", "dragonfly". The empty string keeps the default H-tree. It
// overrides the topology of whatever chip configuration the session
// resolves (pinned via WithChip or auto-sized), so callers pick fabric and
// capacity independently. An unknown name fails NewSession with an error
// satisfying errors.Is(err, ErrUnknownTopology). An H-tree's fanout is the
// chip configuration's (Config.Fanout, pinned with WithChip).
func WithTopology(name string) Option {
	return func(c *sessionConfig) {
		c.topoName = name
		c.topoSet = true
	}
}

// WithWorkers sets the engine's worker-pool size (default: one per core).
// 1 forces serial block execution; results are bit-identical either way.
func WithWorkers(n int) Option {
	return func(c *sessionConfig) { c.workers = n }
}

// WithNORSlab routes every functional arithmetic instruction through the
// words-wide bit-sliced NOR slab substrate (internal/pim/nor) instead of
// host floating point: the run computes its FP32 adds and multiplies
// gate-by-gate, words*64 lanes at a time, and accumulates gate-level
// activity readable via Engine().NORGateStats(). Results are bit-identical
// to the default path; timing and energy charging are unchanged.
// nor.DefaultSlabWords is the tuned width; values < 1 keep the default
// host-float path.
func WithNORSlab(words int) Option {
	return func(c *sessionConfig) { c.slabWords = words }
}

// WithObs attaches an observability sink. The engine records per-phase
// spans and metrics into it during Run, and Run's final publish adds the
// chip-wide crossbar and engine totals. Without this option the session
// runs fully uninstrumented (the nil-sink fast path).
func WithObs(s *obs.Sink) Option {
	return func(c *sessionConfig) { c.sink = s }
}

// WithAcousticMaterial sets the uniform acoustic material (default: the
// benchmark water, kappa=2.25 rho=1).
func WithAcousticMaterial(m material.Acoustic) Option {
	return func(c *sessionConfig) { c.acMat = m }
}

// WithElasticMaterial sets the uniform elastic material (default: the
// benchmark rock, lambda=2 mu=1 rho=1).
func WithElasticMaterial(m material.Elastic) Option {
	return func(c *sessionConfig) { c.elMat = m }
}

// WithDielectric sets the uniform dielectric (default: vacuum).
func WithDielectric(m material.Dielectric) Option {
	return func(c *sessionConfig) { c.diel = m }
}

// WithFaults enables deterministic fault injection on the chip's block
// write paths (stuck-at cells, transient per-write flips, endurance
// wearout, all seeded). Unless WithRecovery is also given, the full
// fault.DefaultRecovery ladder is enabled alongside.
func WithFaults(cfg fault.Config) Option {
	return func(c *sessionConfig) { c.faults = &cfg }
}

// WithRecovery sets the self-healing policy: per-block ECC scrubbing,
// verify-retry budgets, spare-block reservation, and the solver-level
// checkpoint/rollback guard. Useful alone (health checks without injected
// faults) or paired with WithFaults.
func WithRecovery(rec fault.Recovery) Option {
	return func(c *sessionConfig) { c.recovery = &rec }
}

// WithRunID names the run for event-log attribution and flight dumps
// (wavepimd uses its run ids; CLI runs may leave it empty).
func WithRunID(id string) Option {
	return func(c *sessionConfig) { c.runID = id }
}

// WithTraceID attaches the cluster-level trace id (hex) a coordinator
// assigned this job. Flight dumps carry it so a dump pulled off a worker
// can be correlated with the coordinator's merged trace; "" (the
// default) leaves dumps unchanged.
func WithTraceID(id string) Option {
	return func(c *sessionConfig) { c.traceID = id }
}

// WithProgressEvery makes Run emit a run.progress event (step index plus
// simulated time) to the attached event log after every k completed
// steps. Progress events are deterministic for a fixed spec — the step
// sequence and simulated clock do not depend on wall time — so a tap of
// the event log replays byte-identically under an injected clock. k <= 0
// (the default) disables progress events.
func WithProgressEvery(k int) Option {
	return func(c *sessionConfig) { c.progressEvery = k }
}

// WithEventLog attaches a structured event logger: the session emits
// run.start / run.end / run.error events, and the engine emits one event
// per recovery-rung firing. A nil logger (or omitting the option) keeps
// the silent path.
func WithEventLog(l *eventlog.Logger) Option {
	return func(c *sessionConfig) { c.log = l }
}

// WithFlightRecorder attaches a flight recorder. When Run fails with
// fault.ErrNoSpares, fault.ErrUnrecoverable, or an exceeded deadline, the
// session automatically snapshots the recorder (last events + spans);
// the dump is readable via FlightDump and, when WithFlightDump was also
// given, written as JSON to that writer. Tee the recorder into the event
// logger (Logger.SetRecorder) and build it over the session's tracer to
// capture both halves.
func WithFlightRecorder(fr *eventlog.FlightRecorder) Option {
	return func(c *sessionConfig) { c.flight = fr }
}

// WithFlightDump sets the writer automatic flight dumps are serialized to
// (in addition to being retained on the session).
func WithFlightDump(w io.Writer) Option {
	return func(c *sessionConfig) { c.flightTo = w }
}

// NewSession builds the chip, engine, and compiled solver for one equation.
func NewSession(opts ...Option) (*Session, error) {
	cfg := sessionConfig{
		eq:    opcount.Acoustic,
		acMat: material.Acoustic{Kappa: 2.25, Rho: 1},
		elMat: material.Elastic{Lambda: 2, Mu: 1, Rho: 1},
		diel:  material.Dielectric{Eps: 1, Mu: 1},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.mesh == nil {
		return nil, fmt.Errorf("wavepim: NewSession requires WithMesh")
	}
	if cfg.dt <= 0 {
		return nil, fmt.Errorf("wavepim: NewSession requires WithDt > 0")
	}
	if !cfg.fluxSet {
		cfg.flux = FluxFor(cfg.eq)
	}
	topoKind, err := cfg.topologyKind()
	if err != nil {
		return nil, err
	}

	plan, err := SessionPlan(cfg.eq)
	if err != nil {
		return nil, err
	}
	plan.Bench = opcount.Benchmark{Eq: cfg.eq, Refinement: cfg.mesh.Refinement}
	// The layout's schedule, and the equation its plan is cached under
	// (elastic's follows the flux).
	sched, keyEq := acousticSchedule, cfg.eq
	switch cfg.eq {
	case opcount.ElasticCentral, opcount.ElasticRiemann:
		sched, keyEq = elasticSchedule, opcount.ElasticRiemann
		if cfg.flux == dg.CentralFlux {
			keyEq = opcount.ElasticCentral
		}
	case opcount.Maxwell:
		sched = maxwellSchedule
	}
	chipCfg := cfg.applyTopology(sessionChip(cfg, cfg.mesh.NumElem*plan.SlotsPerElem), topoKind)
	key := PlanKey{Eq: keyEq, Flux: cfg.flux, Np: cfg.mesh.Np, EPerAxis: cfg.mesh.EPerAxis,
		Chip: chipCfg.Name, Topo: chipCfg.Interconnect.String()}
	sys, err := newSystem(chipCfg, cfg.mesh, cfg.flux, cfg.dt, plan, &key, sched)
	if err != nil {
		return nil, err
	}
	if sys.batches != nil && (cfg.faults != nil || cfg.recovery != nil) {
		return nil, fmt.Errorf("wavepim: chip %s folds the mesh in %d batches; fault injection and recovery need a chip that holds it",
			chipCfg.Name, len(sys.batches))
	}
	s := &Session{cfg: cfg, sys: sys, eng: sys.Engine}
	switch cfg.eq {
	case opcount.Acoustic:
		s.ac = &FunctionalAcoustic{system: sys, Mat: cfg.acMat}
	case opcount.Maxwell:
		s.mx = &FunctionalMaxwell{system: sys, Mat: cfg.diel}
	default:
		s.el = &FunctionalElastic{system: sys, Mat: cfg.elMat}
	}
	if cfg.workers > 0 {
		s.eng.Workers = cfg.workers
	}
	if cfg.slabWords > 0 {
		s.eng.SlabWords = cfg.slabWords
	}
	s.eng.Obs = cfg.sink
	s.eng.Log = cfg.log
	if cfg.faults != nil || cfg.recovery != nil {
		if err := s.setupFaults(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// SessionPlan is the functional layout NewSession runs an equation
// under: its compiler technique, its block layout, and the crossbar
// blocks (SlotsPerElem) each mesh element occupies. A spec validator
// sizes a run by it before anything is built.
func SessionPlan(eq opcount.Equation) (Plan, error) {
	switch eq {
	case opcount.Acoustic:
		return Plan{Tech: Naive, Layout: AcousticOneBlock, SlotsPerElem: AcousticOneBlock.SlotsPerElement()}, nil
	case opcount.ElasticCentral, opcount.ElasticRiemann, opcount.Maxwell:
		return Plan{Tech: ExpandRows, Layout: ElasticFourBlock, SlotsPerElem: ElasticFourBlock.SlotsPerElement()}, nil
	}
	return Plan{}, fmt.Errorf("wavepim: unknown equation %v", eq)
}

// recovery resolves the effective recovery policy: the explicit one, else
// the full default ladder when faults are injected, else everything off.
func (s *Session) recovery() fault.Recovery {
	if s.cfg.recovery != nil {
		return *s.cfg.recovery
	}
	if s.cfg.faults != nil {
		return fault.DefaultRecovery()
	}
	return fault.Recovery{}
}

// setupFaults wires the injector into the engine and chip: a block hook
// attaches per-block fault state race-free at materialization, and the
// spare pool is reserved just past the layout's highest used block id.
func (s *Session) setupFaults() error {
	rec := s.recovery()
	var fcfg fault.Config
	if s.cfg.faults != nil {
		fcfg = *s.cfg.faults
	}
	inj := fault.NewInjector(fcfg, rec)
	s.eng.Faults = inj
	if fcfg.Enabled() {
		s.eng.Chip.SetBlockHook(func(b *xbar.Block) { b.Faults = inj.ForBlock(b.ID) })
	}
	if rec.SpareBlocks > 0 {
		maxID := s.sys.Place.MaxBlockID()
		nb := s.eng.Chip.Config.NumBlocks()
		if maxID+rec.SpareBlocks >= nb {
			return fmt.Errorf("wavepim: chip %s cannot reserve %d spare blocks: layout uses ids up to %d of %d",
				s.eng.Chip.Config.Name, rec.SpareBlocks, maxID, nb)
		}
		pool := make([]int, rec.SpareBlocks)
		for i := range pool {
			pool[i] = maxID + 1 + i
		}
		s.eng.SparePool = pool
	}
	return nil
}

// sessionChip resolves the chip configuration: the pinned one, else the
// smallest that holds nBlocks, else the largest, through which the model
// then folds in batches.
func sessionChip(cfg sessionConfig, nBlocks int) chip.Config {
	if cfg.chip != nil {
		return *cfg.chip
	}
	c, _ := chipFor(nBlocks) // the largest when none holds the model
	return c
}

// topologyKind validates the WithTopology selection eagerly, before any
// chip is built, so an unknown name fails construction with the typed
// sentinel rather than surfacing from deep inside chip.New.
func (c sessionConfig) topologyKind() (chip.InterconnectKind, error) {
	if !c.topoSet {
		return "", nil
	}
	k, err := chip.ParseInterconnect(c.topoName)
	if err != nil {
		return "", fmt.Errorf("wavepim: %w", err)
	}
	return k, nil
}

// applyTopology overrides the resolved chip configuration's interconnect
// with the WithTopology selection.
func (c sessionConfig) applyTopology(cc chip.Config, k chip.InterconnectKind) chip.Config {
	if !c.topoSet {
		return cc
	}
	cc.Interconnect = k
	return cc
}

// Engine exposes the underlying execution engine (clock, energy, stats).
func (s *Session) Engine() *sim.Engine { return s.eng }

// Obs returns the attached sink (nil when uninstrumented).
func (s *Session) Obs() *obs.Sink { return s.cfg.sink }

// Equation returns the equation the session was built for.
func (s *Session) Equation() opcount.Equation { return s.cfg.eq }

// Topology returns the normalized name of the tile interconnect the
// session's chip was built with ("htree" unless overridden).
func (s *Session) Topology() string { return s.eng.Chip.Config.Interconnect.String() }

// PlanCacheHit reports whether this session's compiled plan was served
// from the process-wide plan cache (true for every session after the
// first with the same equation, flux, order, mesh extent and chip —
// construction then skips block-program compilation entirely).
func (s *Session) PlanCacheHit() bool { return s.sys.CacheHit }

// Acoustic returns the compiled acoustic system, or nil if the session was
// built for another equation. Use it to load initial state and read
// results back.
func (s *Session) Acoustic() *FunctionalAcoustic { return s.ac }

// Elastic returns the compiled elastic system, or nil.
func (s *Session) Elastic() *FunctionalElastic { return s.el }

// Maxwell returns the compiled Maxwell system, or nil.
func (s *Session) Maxwell() *FunctionalMaxwell { return s.mx }

// Step executes one five-stage time-step.
func (s *Session) Step() { s.sys.Step() }

// ErrDeadline reports that Run stopped because the context deadline
// expired. Step is the last fully completed time-step, so a caller can
// resume or account partial progress; errors.Is(err,
// context.DeadlineExceeded) remains true through Unwrap.
type ErrDeadline struct {
	Step int
	Err  error
}

func (e *ErrDeadline) Error() string {
	return fmt.Sprintf("wavepim: deadline exceeded after %d completed steps: %v", e.Step, e.Err)
}

func (e *ErrDeadline) Unwrap() error { return e.Err }

// fieldCheckpoint is one solver-state snapshot for rollback-and-retry:
// one slice per state variable, in the step plan's variable order.
type fieldCheckpoint struct {
	step   int
	normSq float64
	vars   [][]float64
}

// Run executes n time-steps under ctx. Cancellation is honored both at
// block granularity inside the engine's worker pool and between RK
// time-steps; an expired deadline surfaces as *ErrDeadline carrying the
// last completed step. With a recovery policy (WithFaults/WithRecovery)
// Run additionally checks solver health every CheckpointEvery steps —
// non-finite values or norm blow-up trigger a rollback to the last
// healthy checkpoint and a re-run of the damaged span, up to MaxRollbacks
// (then fault.ErrUnrecoverable). On a clean finish it publishes the
// engine and chip totals to the attached sink.
//
// With WithEventLog the run emits run.start / run.end / run.error events;
// with WithFlightRecorder a failure the ladder could not heal (ErrNoSpares,
// ErrUnrecoverable) or an exceeded deadline automatically snapshots the
// recorder (see FlightDump).
func (s *Session) Run(ctx context.Context, n int) error {
	if l := s.cfg.log; l != nil {
		l.Info("run.start",
			eventlog.Str("equation", s.cfg.eq.String()),
			eventlog.Int("steps", n))
	}
	err := s.runSteps(ctx, n)
	s.finishRun(err)
	return err
}

// finishRun emits the run-terminating event and, for failures the
// recovery ladder could not absorb, snapshots the flight recorder.
func (s *Session) finishRun(err error) {
	l := s.cfg.log
	if err == nil {
		if l != nil {
			l.Info("run.end",
				eventlog.F64("sim_seconds", s.eng.TotalTime()),
				eventlog.F64("energy_joules", s.eng.TotalEnergy))
		}
		return
	}
	reason := dumpReason(err)
	if l != nil {
		kind := reason
		if kind == "" {
			kind = "canceled"
		}
		l.Error("run.error",
			eventlog.Str("reason", kind),
			eventlog.Str("error", err.Error()))
	}
	if reason == "" || s.cfg.flight == nil {
		return
	}
	s.lastDump = s.cfg.flight.Dump(reason, s.cfg.runID)
	s.lastDump.Trace = s.cfg.traceID
	if s.cfg.flightTo != nil {
		s.lastDump.WriteJSON(s.cfg.flightTo)
	}
	if l != nil {
		l.Error("flight.dump",
			eventlog.Str("reason", reason),
			eventlog.Int("events", len(s.lastDump.Events)),
			eventlog.Int("spans", len(s.lastDump.Spans)))
	}
}

// dumpReason classifies run errors that warrant a flight dump; plain
// cancellation returns "".
func dumpReason(err error) string {
	var dl *ErrDeadline
	switch {
	case errors.Is(err, fault.ErrNoSpares):
		return "no_spares"
	case errors.Is(err, fault.ErrUnrecoverable):
		return "unrecoverable"
	case errors.As(err, &dl):
		return "deadline"
	}
	return ""
}

// FlightDump returns the most recent automatic flight-recorder snapshot,
// or nil if no run has failed with a dump-triggering error.
func (s *Session) FlightDump() *eventlog.FlightDump { return s.lastDump }

// runSteps is the stepping loop behind Run.
func (s *Session) runSteps(ctx context.Context, n int) error {
	s.eng.SetContext(ctx)
	defer s.eng.SetContext(nil)

	rec := s.recovery()
	guarded := rec.CheckpointEvery > 0
	var (
		ck        fieldCheckpoint
		rollbacks int
	)
	if guarded {
		ck = s.captureState(0)
		s.chargeCheckpoint("sim.fault.checkpoint")
		if s.eng.Faults != nil {
			s.eng.Faults.NoteCheckpoint()
		}
	}
	for i := 0; i < n; {
		s.Step()
		if err := s.eng.Err(); err != nil {
			return s.runErr(err, i)
		}
		if err := ctx.Err(); err != nil {
			return s.runErr(err, i)
		}
		i++
		if k := s.cfg.progressEvery; k > 0 && s.cfg.log != nil && i%k == 0 {
			s.cfg.log.Info("run.progress",
				eventlog.Int("step", i),
				eventlog.Int("of", n),
				eventlog.F64("sim_seconds", s.eng.TotalTime()))
		}
		if !guarded || (i%rec.CheckpointEvery != 0 && i != n) {
			continue
		}
		cand := s.captureState(i)
		if err := dg.CheckHealth(i, ck.normSq, rec.BlowupFactor, cand.vars...); err != nil {
			if rollbacks >= rec.MaxRollbacks {
				return fmt.Errorf("wavepim: %v: %w", err, fault.ErrUnrecoverable)
			}
			rollbacks++
			if s.eng.Faults != nil {
				s.eng.Faults.NoteRollback()
			}
			s.sys.writeVars(ck.vars)
			ph := s.chargeCheckpoint("sim.fault.rollback")
			if sink := s.cfg.sink; sink != nil {
				sink.CounterVec("sim.fault.rung_events", "rung").With("rollback").Inc()
				sink.HistogramVec("sim.fault.mttr_seconds", "rung").With("rollback").Observe(ph.Dur)
			}
			if s.cfg.log != nil {
				s.cfg.log.Warn("fault.rung",
					eventlog.Str("rung", "rollback"),
					eventlog.Int("step", i),
					eventlog.Int("back_to", ck.step),
					eventlog.F64("cost_seconds", ph.Dur))
			}
			i = ck.step
			continue
		}
		ck = cand
		s.chargeCheckpoint("sim.fault.checkpoint")
		if s.eng.Faults != nil {
			s.eng.Faults.NoteCheckpoint()
		}
	}
	s.Publish()
	return nil
}

// runErr maps a run-stopping error to its typed form.
func (s *Session) runErr(err error, completedSteps int) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return &ErrDeadline{Step: completedSteps, Err: err}
	}
	return err
}

// captureState reads the current field state off the chip.
func (s *Session) captureState(step int) fieldCheckpoint {
	ck := fieldCheckpoint{step: step, vars: make([][]float64, len(s.sys.plan.vars))}
	for v := range ck.vars {
		ck.vars[v] = make([]float64, s.cfg.mesh.NumElem*s.cfg.mesh.NodesPerEl)
	}
	s.sys.readVars(ck.vars)
	ck.normSq = dg.NormSq(ck.vars...)
	return ck
}

// chargeCheckpoint accounts a checkpoint store (or rollback load+rewrite)
// as an off-chip DRAM transaction of the state's size on the simulated
// timeline, returning the committed phase (its Dur is the rung's cost).
func (s *Session) chargeCheckpoint(name string) sim.Phase {
	bytes := int64(s.cfg.mesh.NumElem*s.cfg.mesh.NodesPerEl*len(s.sys.plan.vars)) * 4
	return s.eng.Sequence(s.eng.ExecDRAM(name, bytes))
}

// FaultReport returns the per-run fault summary (zero value when the
// session runs without WithFaults/WithRecovery).
func (s *Session) FaultReport() fault.Report {
	return s.eng.FaultReport()
}

// Publish flushes run-level totals to the sink: engine gauges
// (sim.total_seconds, energies, counts) and the chip-wide crossbar
// counters (xbar.*, summing every block's locally accumulated Stats).
// Call it after stepping manually via Step; Run does it for you. No-op
// without a sink.
func (s *Session) Publish() {
	sink := s.cfg.sink
	if sink == nil {
		return
	}
	s.eng.PublishTotals()
	s.eng.Chip.TotalBlockStats().Publish(sink.Reg)
	pc := PlanCacheSnapshot()
	sink.Gauge("wavepim.plan_cache.hits").Set(float64(pc.Hits))
	sink.Gauge("wavepim.plan_cache.misses").Set(float64(pc.Misses))
	sink.Gauge("wavepim.plan_cache.entries").Set(float64(pc.Entries))
}

// WriteTrace writes the engine's recorded phase spans as a Chrome
// trace_event JSON document (chrome://tracing, Perfetto). No spans are
// recorded without an attached sink.
func (s *Session) WriteTrace(w io.Writer) error {
	return s.cfg.sink.WriteTrace(w)
}
