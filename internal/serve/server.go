// Package serve is the wavepimd worker daemon: a bounded job pool that
// executes functional Wave-PIM simulation jobs submitted over HTTP and
// exposes the full observability surface — Prometheus metrics, JSONL
// event logs, Chrome traces, flight-recorder dumps, and live SSE event
// streams. cmd/wavepimd is a thin flag-parsing shell around this
// package; the cluster coordinator (internal/cluster, cmd/wavepimctl)
// drives fleets of these servers through the same HTTP surface and the
// in-process tests exercise them through httptest.
//
// Jobs are idempotent when the client names them: a JobSpec may carry a
// client-supplied id (canonicalized by cluster.NormalizeJobID), and
// resubmitting an id the server has already seen returns the existing
// run instead of starting a new one — the retry-safety the coordinator's
// rebalancing leans on.
package serve

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/pim/fault"
	"wavepim/internal/wavepim"
)

// JobSpec is the POST /runs body: one functional simulation job in the
// vocabulary of the benchmark table plus the fault-injection spec
// strings the CLIs accept. The type lives in internal/cluster so the
// coordinator and the workers share one wire shape and one validator
// (JobSpec.Normalize); the worker ignores the coordinator-level Tenant
// and Priority fields.
type JobSpec = cluster.JobSpec

// run is one tracked job. Mutable fields are guarded by mu; the HTTP
// layer reads through view(). The tap exists from submission so SSE
// subscribers can attach to a queued run and replay from the start.
type run struct {
	mu sync.Mutex

	id     string
	spec   JobSpec // normalized
	status string  // "queued", "running", "done", "failed"
	errMsg string
	reason string // flight-dump reason on failure ("" otherwise)
	trace  string // cluster trace id (hex) from X-Wavepim-Trace, "" standalone

	tap     *eventlog.Tap
	sink    *obs.Sink // per-run tracer over the shared registry
	report  fault.Report
	dump    *eventlog.FlightDump
	wallSec float64
}

// RunView is the JSON shape of a run in /runs responses. Field order is
// fixed by the struct, so listings are deterministic given equal state.
type RunView struct {
	ID       string       `json:"id"`
	Status   string       `json:"status"`
	Equation string       `json:"equation"`
	Steps    int          `json:"steps"`
	Trace    string       `json:"trace,omitempty"`
	Error    string       `json:"error,omitempty"`
	Reason   string       `json:"reason,omitempty"`
	HasDump  bool         `json:"has_flight_dump"`
	WallSec  float64      `json:"wall_seconds"`
	Report   fault.Report `json:"fault_report"`
}

func (r *run) view() RunView {
	r.mu.Lock()
	defer r.mu.Unlock()
	eq, _ := cluster.EquationOf(r.spec.Equation)
	return RunView{
		ID: r.id, Status: r.status, Equation: eq.String(), Steps: r.spec.Steps,
		Trace: r.trace, Error: r.errMsg, Reason: r.reason, HasDump: r.dump != nil,
		WallSec: r.wallSec, Report: r.report,
	}
}

// Options configures a Server. Zero values select the documented
// defaults.
type Options struct {
	Workers       int       // concurrent simulation jobs (default 1)
	QueueCap      int       // job queue capacity (default 16)
	TraceCap      int       // per-run span ring capacity (default 4096)
	LogW          io.Writer // process-wide event log writer (default io.Discard)
	Level         eventlog.Level
	Now           func() time.Time // injectable clock (default time.Now)
	ProgressEvery int              // run.progress cadence in steps (default 1; <0 disables)
}

// Server owns the shared metrics registry, the run table, and the worker
// pool. One registry serves every run — per-phase histograms and rung
// counters aggregate across jobs, which is exactly what a Prometheus
// scraper wants — while traces, taps, and flight recorders are per run.
type Server struct {
	reg   *obs.Registry
	log   *eventlog.Logger
	logW  io.Writer // per-run logger cores write here too
	level eventlog.Level
	now   func() time.Time

	traceCap      int
	flightEvents  int
	flightSpans   int
	progressEvery int

	mu       sync.Mutex
	runs     map[string]*run
	order    []string
	seq      int
	jobs     chan *run
	draining bool

	wg sync.WaitGroup
}

// NewServer builds the server and starts its job executors.
func NewServer(o Options) *Server {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.TraceCap <= 0 {
		o.TraceCap = 4096
	}
	if o.LogW == nil {
		o.LogW = io.Discard
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 1
	}
	log := eventlog.New(o.LogW, o.Level)
	log.SetClock(o.Now)
	s := &Server{
		reg:           obs.NewRegistry(),
		log:           log,
		logW:          o.LogW,
		level:         o.Level,
		now:           o.Now,
		traceCap:      o.TraceCap,
		flightEvents:  256,
		flightSpans:   256,
		progressEvery: o.ProgressEvery,
		runs:          map[string]*run{},
		jobs:          make(chan *run, o.QueueCap),
	}
	// Pre-register the rung families so a scrape taken before any fault
	// activity still exposes them (with zero values) — the CI smoke test
	// and dashboards key on these names existing.
	for _, rung := range []string{"ecc", "retry", "remap", "rollback"} {
		s.reg.CounterVec("sim.fault.rung_events", "rung").With(rung)
		s.reg.HistogramVec("sim.fault.mttr_seconds", "rung").With(rung)
	}
	for _, st := range []string{"done", "failed", "rejected"} {
		s.reg.CounterVec("wavepimd.runs", "status").With(st)
	}
	s.reg.Gauge("wavepimd.active_runs")
	s.reg.Gauge("wavepimd.queue_depth")
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Log exposes the daemon-level logger (cmd/wavepimd logs lifecycle
// events through it).
func (s *Server) Log() *eventlog.Logger { return s.log }

// Drain stops accepting jobs and blocks until every queued and in-flight
// run has finished.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.jobs)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.jobs {
		s.reg.Gauge("wavepimd.queue_depth").Add(-1)
		s.reg.Gauge("wavepimd.active_runs").Add(1)
		s.execute(r)
		s.reg.Gauge("wavepimd.active_runs").Add(-1)
	}
}

// execute runs one job end to end: build the session over the shared
// registry plus a per-run capped tracer, wire a fresh event-log core
// teed into the run's tap and a per-run flight recorder, load the
// plane-wave initial condition, and run. The spec was normalized at
// submission, so nothing here should panic; if something does, the run
// fails with reason "panic" and a flight dump instead of taking the
// daemon down with it.
func (s *Server) execute(r *run) {
	r.mu.Lock()
	r.status = "running"
	spec := r.spec
	id := r.id
	tap := r.tap
	traceID := r.trace
	r.mu.Unlock()

	started := s.now()
	sink := &obs.Sink{Reg: s.reg, Trace: obs.NewTracer().WithCap(s.traceCap)}
	// A fresh core per run: SetRecorder is core-wide, so concurrent runs
	// must not share one (a shared core would tee run A's events into run
	// B's recorder). The cores share the process writer; each Write is one
	// line, and the tap retains the run's own lines for SSE replay.
	core := eventlog.New(io.MultiWriter(s.logW, tap), s.level)
	core.SetClock(s.now)
	fr := eventlog.NewFlightRecorder(sink.Trace, s.flightEvents, s.flightSpans)
	core.SetRecorder(fr)
	runLog := core.WithRun(id)
	if traceID != "" {
		// Cluster-dispatched run: every event line carries the propagated
		// trace id, so a grep across the fleet's logs reconstructs a job.
		runLog = runLog.With(eventlog.Str("trace", traceID))
	}

	var sess *wavepim.Session
	var dump *eventlog.FlightDump
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("run panicked: %v", p)
				runLog.Error("run.panic", eventlog.Str("error", err.Error()))
				dump = fr.Dump("panic", id)
				dump.Trace = traceID
			}
		}()
		var q sessionState
		if sess, q, err = s.buildSession(spec, id, traceID, sink, runLog, fr); err != nil {
			return err
		}
		loadState(sess, q)
		ctx := context.Background()
		if spec.DeadlineMS > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(spec.DeadlineMS)*time.Millisecond)
			defer cancel()
		}
		return sess.Run(ctx, spec.Steps)
	}()
	s.finish(r, sink, sess, dump, s.now().Sub(started).Seconds(), err)
}

// finish records a run's terminal state and daemon-level metrics, and
// completes the run's event stream. The run's flight dump is dump when
// non-nil (a recovered panic), else the session's own.
func (s *Server) finish(r *run, sink *obs.Sink, sess *wavepim.Session, dump *eventlog.FlightDump, wall float64, err error) {
	r.mu.Lock()
	r.sink = sink
	r.wallSec = wall
	r.dump = dump
	if sess != nil {
		r.report = sess.FaultReport()
		if dump == nil {
			r.dump = sess.FlightDump()
		}
	}
	if err != nil {
		r.status = "failed"
		r.errMsg = err.Error()
		if r.dump != nil {
			r.reason = r.dump.Reason
		}
	} else {
		r.status = "done"
	}
	status := r.status
	id := r.id
	tap := r.tap
	r.mu.Unlock()
	tap.Close()

	s.reg.CounterVec("wavepimd.runs", "status").With(status).Inc()
	s.reg.Histogram("wavepimd.run_wall_seconds").Observe(wall)
	if err != nil {
		s.log.Error("daemon.run_failed", eventlog.Str("run", id), eventlog.Str("error", err.Error()))
	} else {
		s.log.Info("daemon.run_done", eventlog.Str("run", id), eventlog.F64("wall_seconds", wall))
	}
}

// sessionState is the loaded initial condition, paired with its loader.
type sessionState struct {
	ac *dg.AcousticState
	el *dg.ElasticState
	mx *dg.MaxwellState
}

// buildSession constructs the session for a normalized spec. The dt
// comes from the reference solver's CFL bound, like the functional CLIs.
func (s *Server) buildSession(spec JobSpec, id, traceID string, sink *obs.Sink, log *eventlog.Logger, fr *eventlog.FlightRecorder) (*wavepim.Session, sessionState, error) {
	var st sessionState
	eq, _ := cluster.EquationOf(spec.Equation)
	m := mesh.New(spec.Refine, spec.Np, true)
	flux := wavepim.FluxFor(eq)

	var dt float64
	acMat := material.Acoustic{Kappa: 2.25, Rho: 1}
	elMat := material.Elastic{Lambda: 2, Mu: 1, Rho: 1}
	diel := material.Dielectric{Eps: 1, Mu: 1}
	switch eq {
	case opcount.Acoustic:
		dt = dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, acMat), flux).MaxStableDt(spec.CFL)
		st.ac = dg.NewAcousticState(m)
		dg.PlaneWaveX(m, acMat, 1, st.ac)
	case opcount.ElasticCentral, opcount.ElasticRiemann:
		dt = dg.NewElasticSolver(m, material.UniformElastic(m.NumElem, elMat), flux).MaxStableDt(spec.CFL)
		st.el = dg.NewElasticState(m)
		dg.PlaneWavePX(m, elMat, 1, st.el)
	case opcount.Maxwell:
		dt = dg.NewMaxwellSolver(m, diel, flux).MaxStableDt(spec.CFL)
		st.mx = dg.NewMaxwellState(m)
		dg.PlaneWaveEM(m, diel, 1, st.mx)
	}

	opts := []wavepim.Option{
		wavepim.WithEquation(eq),
		wavepim.WithMesh(m),
		wavepim.WithDt(dt),
		wavepim.WithObs(sink),
		wavepim.WithRunID(id),
		wavepim.WithTraceID(traceID),
		wavepim.WithEventLog(log),
		wavepim.WithFlightRecorder(fr),
		wavepim.WithProgressEvery(s.progressEvery),
	}
	if spec.Workers > 0 {
		opts = append(opts, wavepim.WithWorkers(spec.Workers))
	}
	opts = append(opts, wavepim.WithTopology(spec.Topology))
	if spec.Faults != "" {
		fcfg, err := fault.ParseSpec(spec.Faults)
		if err != nil {
			return nil, st, fmt.Errorf("faults spec: %w", err)
		}
		opts = append(opts, wavepim.WithFaults(fcfg))
	}
	if spec.Recover != "" {
		rec, err := fault.ParseRecoverySpec(spec.Recover)
		if err != nil {
			return nil, st, fmt.Errorf("recover spec: %w", err)
		}
		opts = append(opts, wavepim.WithRecovery(rec))
	}
	sess, err := wavepim.NewSession(opts...)
	return sess, st, err
}

func loadState(s *wavepim.Session, st sessionState) {
	switch {
	case st.ac != nil:
		s.Acoustic().Load(st.ac)
	case st.el != nil:
		s.Elastic().Load(st.el)
	case st.mx != nil:
		s.Maxwell().Load(st.mx)
	}
}
