package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"wavepim/internal/cluster/trace"
	"wavepim/internal/obs"
	"wavepim/internal/obs/eventlog"
)

// The coordinator. Submissions pass per-tenant admission control, wait
// in priority queues, and are dispatched to the consistent-hash owner of
// their job id. Dispatch is at-least-once on top of the workers'
// idempotent /runs, but budgeted: every bounce (transport failure, 503
// backpressure, lost run) consumes one unit of the job's retry budget
// and costs a capped-exponential, deterministically jittered backoff;
// a job that exhausts its budget terminates as "failed" with a typed
// *ErrRetriesExhausted instead of bouncing forever. Per-worker circuit
// breakers stop dispatch to a flapping worker until a half-open probe
// proves recovery, and an optional append-only journal makes the whole
// job table survive a coordinator crash (see journal.go).
//
// A job's life is a sequence of events. advance is the only code that
// changes a job's state; emit is the only code that records a
// transition (trace span, journal record, metric, event log line). Live
// events pass through both; journal replay folds the recorded events
// through advance alone, so a replayed job holds exactly the state its
// live twin held.

// cjob is one coordinator-tracked job.
type cjob struct {
	mu       sync.Mutex
	id       string
	tenant   string
	priority Priority
	digest   uint64
	body     []byte // canonical forward body (spec with normalized id)
	status   string // "queued", "dispatched", "done", "failed"
	worker   string // current/last owner id
	errMsg   string
	err      error     // typed terminal error (e.g. *ErrRetriesExhausted)
	attempts int       // failed dispatch attempts so far
	deadline time.Time // zero: none; else submit time + DeadlineMS + grace
	cached   bool      // served from the content-addressed result cache
	result   []byte    // owning worker's terminal GET /runs/{id} bytes

	trace       *jobTrace // coordinator-side timeline; a replayed terminal job holds its journaled spans
	workerTrace []byte    // owning worker's Chrome trace, as fetched (nil: none)
}

// evKind names a job lifecycle event.
type evKind int

const (
	evSubmit   evKind = iota // → queued: a new submission (a cache hit is never admitted)
	evRestore                // → queued: a replayed job without a terminal record, re-admitted
	evStall                  // queued, held without charge: no owner, or its breaker is open
	evDispatch               // queued → dispatched to worker
	evAccept                 // dispatched: worker accepted the run
	evRetry                  // dispatched → queued, charging one retry
	evTerminal               // → done | failed
)

// event is one input to advance. at is its instant; since starts the
// span it ends (the submission, a POST attempt, the report fetch).
type event struct {
	kind     evKind
	at       time.Time
	since    time.Time
	annot    string // span annotation: admission class, stall reason, attempt outcome
	worker   string // the job's owner from now on ("" keeps it)
	attempts int    // retry units charged

	// Terminal outcome.
	status      string // done | failed
	err         error
	cached      bool   // served from the result cache
	result      []byte // the owning worker's report bytes
	report      string // annotation of the report fetch span ("": none)
	workerTrace []byte // the owning worker's Chrome trace (nil: none)
}

// terminal reports whether the job reached done or failed. Caller holds
// j.mu.
func (j *cjob) terminal() bool { return j.status == "done" || j.status == "failed" }

// advance is the job's one state transition. It applies ev to the
// lifecycle fields and does nothing else: no I/O, no clock. Terminal
// states absorb every later event. Caller holds j.mu, or owns j alone
// as replay does.
func (j *cjob) advance(ev event) {
	if j.terminal() {
		return
	}
	if ev.worker != "" {
		j.worker = ev.worker
	}
	j.attempts += ev.attempts
	switch ev.kind {
	case evSubmit, evRestore, evRetry:
		j.status = "queued"
	case evDispatch:
		j.status = "dispatched"
	case evTerminal:
		j.status, j.err, j.cached = ev.status, ev.err, ev.cached
		j.errMsg = ""
		if ev.err != nil {
			j.errMsg = ev.err.Error()
		}
		// Canonical report bytes: the journal stores them as a JSON
		// RawMessage, which compacts surrounding whitespace on re-marshal,
		// so trimming keeps pre-crash and post-replay reads byte-identical.
		j.result = bytes.TrimSpace(ev.result)
		if len(j.result) == 0 {
			j.result = nil
		}
	}
}

// Err returns the job's typed terminal error (nil while non-terminal or
// on success). Callers use errors.As to detect *ErrRetriesExhausted.
func (j *cjob) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ErrRetriesExhausted is the typed terminal error of a job that consumed
// its whole dispatch retry budget. Last carries the sanitized cause of
// the final attempt (url.Error wrappers are stripped so the text never
// embeds an ephemeral host:port).
type ErrRetriesExhausted struct {
	ID       string
	Attempts int
	Last     string
}

func (e *ErrRetriesExhausted) Error() string {
	return fmt.Sprintf("cluster: job %s retries exhausted after %d attempts: %s", e.ID, e.Attempts, e.Last)
}

// JobView is the JSON shape of a job in /jobs listings. Field order is
// fixed by the struct.
type JobView struct {
	ID       string       `json:"id"`
	Status   string       `json:"status"`
	Tenant   string       `json:"tenant,omitempty"`
	Priority string       `json:"priority"`
	Worker   string       `json:"worker,omitempty"`
	Error    string       `json:"error,omitempty"`
	Cached   bool         `json:"cached"`
	Attempts int          `json:"attempts"`
	Digest   string       `json:"digest"`
	Trace    string       `json:"trace"`
	Stages   StageSeconds `json:"stages"`
}

func (j *cjob) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobView{
		ID: j.id, Status: j.status, Tenant: j.tenant, Priority: j.priority.String(),
		Worker: j.worker, Error: j.errMsg, Cached: j.cached, Attempts: j.attempts,
		Digest: fmt.Sprintf("%016x", j.digest),
		Trace:  fmt.Sprintf("%016x", trace.ID(j.id)),
		Stages: j.trace.stageSeconds(),
	}
}

// CoordinatorOptions configures a Coordinator. Zero values select the
// documented defaults.
type CoordinatorOptions struct {
	TTL           time.Duration // worker heartbeat TTL (default 10s)
	Replicas      int           // ring virtual nodes per worker (default DefaultRingReplicas)
	Quota         QuotaConfig   // default per-tenant quota
	Dispatchers   int           // concurrent dispatch loops (default 4)
	PollInterval  time.Duration // worker run-status poll cadence (default 5ms)
	MaxRetries    int           // per-job dispatch retry budget (default 64)
	BackoffBase   time.Duration // first-retry backoff (default 10ms)
	BackoffCap    time.Duration // backoff ceiling (default 2s)
	Seed          uint64        // seed for deterministic backoff jitter
	DeadlineGrace time.Duration // slack added to JobSpec.DeadlineMS (default 5s)
	Breaker       BreakerConfig // per-worker circuit breakers
	MaxJobs       int           // tracked-job bound; oldest terminal jobs evict (default 16384)

	Journal *Journal        // crash-safety journal (nil: in-memory only)
	Replay  []JournalRecord // records OpenJournal read, replayed at startup

	// Log receives the coordinator's structured job lifecycle events
	// (job.submit / job.dispatch / job.retry / job.terminal); nil is
	// silent. FlightW, when set alongside Log, attaches a flight recorder
	// to the log and writes an automatic dump there whenever a job
	// exhausts its retry budget.
	Log     *eventlog.Logger
	FlightW io.Writer

	Client *http.Client // control-plane client (default: 30s timeout)
	Now    func() time.Time
}

// Coordinator shards jobs across registered wavepimd workers.
type Coordinator struct {
	reg      *Registry
	adm      *Admission
	breakers *Breakers
	metrics  *obs.Registry
	client   *http.Client
	journal  *Journal
	log      *eventlog.Logger
	flight   *eventlog.FlightRecorder
	flightW  io.Writer
	flightMu sync.Mutex // serializes flight-dump writes
	now      func() time.Time

	poll          time.Duration
	backoffBase   time.Duration
	backoffCap    time.Duration
	maxRetries    int
	seed          uint64
	deadlineGrace time.Duration
	maxJobs       int

	mu     sync.Mutex
	jobs   map[string]*cjob
	order  []string
	seq    int
	replay ReplayStats

	byDigest sync.Map // digest -> a done *cjob (content-addressed result cache)

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewCoordinator builds the coordinator, replays the journal (when one
// is configured), and starts its dispatchers.
func NewCoordinator(o CoordinatorOptions) *Coordinator {
	if o.Dispatchers <= 0 {
		o.Dispatchers = 4
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 5 * time.Millisecond
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 10 * time.Millisecond
	}
	if o.BackoffCap <= 0 {
		o.BackoffCap = 2 * time.Second
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 64
	}
	if o.DeadlineGrace <= 0 {
		o.DeadlineGrace = 5 * time.Second
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 16384
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		reg:           NewRegistry(o.TTL, o.Replicas, o.Now),
		adm:           NewAdmission(o.Quota),
		breakers:      NewBreakers(o.Breaker, o.Now),
		metrics:       obs.NewRegistry(),
		client:        o.Client,
		journal:       o.Journal,
		log:           o.Log,
		flightW:       o.FlightW,
		now:           o.Now,
		poll:          o.PollInterval,
		backoffBase:   o.BackoffBase,
		backoffCap:    o.BackoffCap,
		maxRetries:    o.MaxRetries,
		seed:          o.Seed,
		deadlineGrace: o.DeadlineGrace,
		maxJobs:       o.MaxJobs,
		jobs:          map[string]*cjob{},
		ctx:           ctx,
		cancel:        cancel,
	}
	for _, st := range []string{"done", "failed", "rejected", "cached"} {
		c.metrics.CounterVec("wavepimctl.jobs", "status").With(st)
	}
	c.metrics.Counter("wavepimctl.dispatch_retries")
	c.metrics.Counter("wavepimctl.breaker_rejections")
	c.metrics.Counter("wavepimctl.jobs_evicted")
	c.metrics.Histogram("wavepimctl.retry_backoff_seconds")
	c.metrics.Gauge("wavepimctl.journal_records")
	c.metrics.Gauge("wavepimctl.workers")
	// Pre-register the backpressure gauges and the latency-decomposition
	// histogram children for every (priority, outcome) pair, so a scrape
	// of a fresh coordinator already exposes the families — and two
	// coordinators that ran different job mixes still expose identical
	// family/child sets, keeping expositions byte-comparable.
	for p := Priority(0); p < numPriorities; p++ {
		c.metrics.GaugeVec("wavepimctl.queue_depth", "priority").With(p.String())
		c.metrics.GaugeVec("wavepimctl.queue_age_seconds", "priority").With(p.String())
		for _, outcome := range []string{"cached", "done", "failed"} {
			for _, fam := range stageFamilies {
				c.metrics.HistogramVec(fam, "priority", "outcome").With(p.String(), outcome)
			}
		}
	}
	if o.Log != nil && o.FlightW != nil {
		c.flight = eventlog.NewFlightRecorder(nil, 256, 0)
		o.Log.SetRecorder(c.flight)
	}
	if len(o.Replay) > 0 {
		c.replayJournal(o.Replay)
	}
	for i := 0; i < o.Dispatchers; i++ {
		c.wg.Add(1)
		go c.dispatchLoop()
	}
	return c
}

// Registry exposes cluster membership (the HTTP layer and tests use it).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Replay reports what the startup journal replay did.
func (c *Coordinator) Replay() ReplayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.replay
}

// Close stops accepting jobs and halts the dispatchers. In-flight
// dispatches are abandoned (their workers finish the runs; the runs stay
// queryable on the workers, and a journaled coordinator re-polls them on
// restart). The journal itself stays open — its owner closes it.
func (c *Coordinator) Close() {
	c.adm.Close()
	c.cancel()
	c.wg.Wait()
}

// newJob builds an untracked job for a parsed spec and its canonical
// body. Its deadline is the worker's DeadlineMS plus DeadlineGrace for
// queueing, transport, and retries, counted from now.
func (c *Coordinator) newJob(spec JobSpec, prio Priority, body []byte) *cjob {
	j := &cjob{id: spec.ID, tenant: spec.Tenant, priority: prio, digest: spec.Digest(), body: body}
	if spec.DeadlineMS > 0 {
		j.deadline = c.now().Add(time.Duration(spec.DeadlineMS)*time.Millisecond + c.deadlineGrace)
	}
	return j
}

// expired reports whether a job's deadline passed.
func (c *Coordinator) expired(j *cjob) bool {
	return !j.deadline.IsZero() && c.now().After(j.deadline)
}

// Submit admits a spec. A spec Normalize rejects returns its *SpecError
// before admission. The returned job is terminal immediately when
// the submission is a duplicate (same id) or content-identical to a
// completed job (same digest — served from cache without touching a
// worker). The bool reports whether the job already existed.
func (c *Coordinator) Submit(spec JobSpec) (*cjob, bool, error) {
	submitAt := c.now()
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	// The worker gets the spec as submitted, with only its id made
	// canonical (or assigned); it normalizes the spec again itself.
	spec.ID = norm.ID
	if spec.ID == "" {
		c.mu.Lock()
		c.seq++
		spec.ID = fmt.Sprintf("j%04d", c.seq)
		c.mu.Unlock()
	}
	prio, _ := ParsePriority(norm.Priority)
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	if existing, ok := c.jobs[spec.ID]; ok {
		c.mu.Unlock()
		return existing, true, nil
	}
	j := c.newJob(spec, prio, body)
	// The job enters the table locked: nobody sees it before its submit
	// event has set its status.
	j.mu.Lock()
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.evictLocked(j.id)
	c.mu.Unlock()

	sub := event{kind: evSubmit, since: submitAt, at: c.now(), annot: prio.String()}
	v, cached := c.byDigest.Load(j.digest)
	if !cached {
		qj := &QueuedJob{ID: j.id, Tenant: spec.Tenant, Priority: prio, Enqueued: c.now(), Payload: j}
		if err := c.emit(qj, j, sub); err != nil {
			return nil, false, err
		}
		return j, false, nil
	}
	// Content-identical to a completed job: serve its report without
	// dispatching; the job's whole life is its admission.
	done := v.(*cjob)
	done.mu.Lock()
	hit := event{kind: evTerminal, status: done.status, worker: done.worker,
		err: done.err, result: done.result, cached: true}
	done.mu.Unlock()
	sub.annot = "cache-hit"
	c.emit(nil, j, sub)
	hit.at = c.now()
	c.raise(nil, j, hit)
	return j, false, nil
}

// raise passes one live event through advance and its side effects.
func (c *Coordinator) raise(qj *QueuedJob, j *cjob, ev event) error {
	j.mu.Lock()
	return c.emit(qj, j, ev)
}

// emit advances j by ev and performs the transition's side effects in
// order: trace spans, admission, journal record, metrics, event log
// line, flight dump, and the release of a terminal job's tenant slot.
// qj is nil for a job that was never admitted (a cache hit). Caller
// holds j.mu; emit keeps it until the transition's records are written,
// so whoever sees the new state — a poller, or a dispatcher that claims
// the job the moment it is admitted — sees it recorded. It then
// releases the lock, and a stall or a retry waits out its hold and
// requeues the job. Only a submission fails: admission rejected it (the
// job is dropped), or its journal record did not reach disk.
func (c *Coordinator) emit(qj *QueuedJob, j *cjob, ev event) error {
	j.advance(ev)
	tl := j.trace
	outcome := j.status
	if j.cached {
		outcome = "cached"
	}
	var rec JournalRecord
	switch ev.kind {
	case evSubmit, evRestore:
		tl = newJobTrace(j.id, ev.since)
		j.trace = tl
		tl.record(trace.StageAdmission, ev.since, ev.at, ev.annot)
		if qj != nil {
			tl.openQueue(ev.at, j.priority.String())
		}
		if ev.kind == evSubmit {
			rec = JournalRecord{T: JournalSubmit, ID: j.id, Spec: j.body}
		}
	case evStall, evDispatch:
		tl.closeQueue(ev.at)
	case evAccept:
		tl.endAttempt(ev.since, ev.at, "accepted:"+ev.worker)
		tl.openExec(ev.at, "worker:"+ev.worker)
		rec = JournalRecord{T: JournalDispatch, ID: j.id, Worker: ev.worker}
	case evRetry:
		tl.endAttempt(ev.since, ev.at, ev.annot)
		rec = JournalRecord{T: JournalRetry, ID: j.id, Error: ev.err.Error(), Attempts: ev.attempts}
	case evTerminal:
		if ev.report != "" {
			tl.closeExec(ev.since, "")
			tl.record(trace.StageReport, ev.since, ev.at, ev.report)
		} else if ev.annot != "" {
			tl.endAttempt(ev.since, ev.at, ev.annot)
		}
		tl.finalize(ev.at, outcome)
		j.workerTrace = ev.workerTrace
		rec = JournalRecord{T: JournalTerminal, ID: j.id, Worker: j.worker,
			Status: j.status, Error: j.errMsg, Cached: j.cached, Attempts: j.attempts,
			Result: j.result, Spans: tl.spans, WorkerTrace: j.workerTrace}
	}

	attempts, prio := j.attempts, j.priority.String()
	exhausted := ev.kind == evRetry && attempts >= c.maxRetries
	if ev.kind == evSubmit && qj != nil {
		if err := c.adm.Submit(qj); err != nil {
			j.mu.Unlock()
			c.mu.Lock()
			delete(c.jobs, j.id)
			if n := len(c.order); n > 0 && c.order[n-1] == j.id {
				c.order = c.order[:n-1]
			}
			c.mu.Unlock()
			c.metrics.CounterVec("wavepimctl.jobs", "status").With("rejected").Inc()
			return err
		}
	}
	if rec.T != "" && c.journal != nil {
		// For a submission this is the durability point: the 202 must not
		// leave before the record is fsynced. A failure surfaces as a
		// submission error (the job may still run — workers are idempotent
		// — but the client is told to retry, and the retry under the same
		// id is safe).
		if err := c.journal.Append(rec); err != nil && ev.kind == evSubmit {
			j.mu.Unlock()
			return fmt.Errorf("cluster: journal submit: %w", err)
		}
	}
	var backoff time.Duration
	switch ev.kind {
	case evSubmit:
		c.log.Info("job.submit", eventlog.Str("job", j.id), eventlog.Str("tenant", j.tenant),
			eventlog.Str("priority", prio), eventlog.Str("trace", tl.ctx.Hex()),
			eventlog.Bool("cached", qj == nil))
	case evRestore:
		c.adm.Restore(qj)
	case evAccept:
		c.log.Info("job.dispatch", eventlog.Str("job", j.id), eventlog.Str("worker", ev.worker),
			eventlog.Int("attempt", attempts))
	case evRetry:
		if !exhausted {
			c.metrics.Counter("wavepimctl.dispatch_retries").Inc()
			backoff = RetryBackoff(c.seed, j.id, attempts, c.backoffBase, c.backoffCap)
			c.metrics.Histogram("wavepimctl.retry_backoff_seconds").Observe(backoff.Seconds())
			c.log.Warn("job.retry", eventlog.Str("job", j.id), eventlog.Int("attempt", attempts),
				eventlog.Str("cause", ev.err.Error()), eventlog.Int64("backoff_ms", backoff.Milliseconds()))
		}
	case evTerminal:
		if rec.Status == "done" && rec.Result != nil && !rec.Cached {
			c.byDigest.LoadOrStore(j.digest, j)
		}
		c.metrics.CounterVec("wavepimctl.jobs", "status").With(outcome).Inc()
		c.observeStages(prio, outcome, tl.stageSeconds())
		lv := eventlog.Info
		if rec.Status == "failed" {
			lv = eventlog.Error
		}
		c.log.Log(lv, "job.terminal", eventlog.Str("job", j.id), eventlog.Str("status", rec.Status),
			eventlog.Str("error", rec.Error))
		var ex *ErrRetriesExhausted
		if errors.As(ev.err, &ex) && c.flight != nil && c.flightW != nil {
			// A job that burned its whole retry budget is the cluster-level
			// unrecoverable failure: snapshot the coordinator's recent events
			// the way a worker snapshots an unhealable run.
			c.flightMu.Lock()
			c.flight.Dump("retries-exhausted", j.id).WriteJSON(c.flightW)
			c.flightMu.Unlock()
		}
		if qj != nil {
			c.adm.Done(qj.Tenant)
		}
	}
	j.mu.Unlock()

	switch {
	case ev.kind == evStall:
		c.hold(qj, j, trace.StageStall, c.backoffBase, ev.annot)
	case exhausted:
		return c.raise(qj, j, event{kind: evTerminal, at: c.now(), status: "failed",
			err: &ErrRetriesExhausted{ID: j.id, Attempts: attempts, Last: ev.err.Error()}})
	case ev.kind == evRetry:
		c.hold(qj, j, trace.StageBackoff, backoff, fmt.Sprintf("attempt %d", attempts))
	}
	return nil
}

// hold waits d out, records the wait as a stage span, and puts the job
// back in its queue. A coordinator that closes meanwhile keeps the job
// non-terminal in memory; a journaled one re-admits it on restart.
func (c *Coordinator) hold(qj *QueuedJob, j *cjob, stage string, d time.Duration, annot string) {
	start, ok := c.now(), true
	select {
	case <-c.ctx.Done():
		ok = false
	case <-time.After(d):
	}
	j.mu.Lock()
	j.trace.record(stage, start, c.now(), annot)
	if ok {
		j.trace.openQueue(c.now(), j.priority.String())
	}
	j.mu.Unlock()
	if ok {
		c.adm.Requeue(qj)
	}
}

// evictLocked enforces the tracked-job bound by evicting the oldest
// terminal jobs (and their content-cache entries). Active jobs are never
// evicted, and neither is keep (the job just inserted). Caller holds
// c.mu.
func (c *Coordinator) evictLocked(keep string) {
	for len(c.jobs) > c.maxJobs {
		idx := -1
		for i, id := range c.order {
			if id == keep {
				continue
			}
			j := c.jobs[id]
			j.mu.Lock()
			terminal := j.terminal()
			j.mu.Unlock()
			if terminal {
				idx = i
				break
			}
		}
		if idx < 0 {
			return // nothing evictable; tolerate the overshoot
		}
		id := c.order[idx]
		j := c.jobs[id]
		delete(c.jobs, id)
		c.order = append(c.order[:idx], c.order[idx+1:]...)
		c.byDigest.CompareAndDelete(j.digest, j)
		c.metrics.Counter("wavepimctl.jobs_evicted").Inc()
	}
}

// replayJournal rebuilds the job table from the journal's records. Each
// record is the event it journaled, folded through advance with no side
// effects; terminal jobs are then restored verbatim (reports and traces
// stay queryable), a job whose journaled retries already spent this
// coordinator's budget fails as exhausted, and the rest are re-admitted
// for dispatch under their idempotent ids. Runs inside NewCoordinator,
// before any dispatcher starts.
func (c *Coordinator) replayJournal(recs []JournalRecord) {
	byID := map[string]*cjob{} // nil: a submit whose spec does not parse
	var order []*cjob
	lastCause := map[*cjob]string{} // the latest retry record's cause
	c.replay.Records = len(recs)
	for _, rec := range recs {
		j, seen := byID[rec.ID]
		var ev event
		switch rec.T {
		case JournalSubmit:
			if seen {
				c.replay.Dropped++
				continue
			}
			var spec JobSpec
			err := json.Unmarshal(rec.Spec, &spec)
			prio, perr := ParsePriority(spec.Priority)
			if err != nil || perr != nil {
				byID[rec.ID] = nil
				c.replay.Dropped++
				continue
			}
			spec.ID = rec.ID
			j = c.newJob(spec, prio, rec.Spec)
			byID[rec.ID] = j
			order = append(order, j)
			ev = event{kind: evSubmit}
		case JournalDispatch:
			ev = event{kind: evDispatch, worker: rec.Worker}
		case JournalRetry:
			ev = event{kind: evRetry, attempts: rec.Attempts}
			if j != nil {
				lastCause[j] = rec.Error
			}
		case JournalTerminal:
			ev = event{kind: evTerminal, worker: rec.Worker, attempts: rec.Attempts,
				status: rec.Status, cached: rec.Cached, result: rec.Result}
			if rec.Error != "" {
				ev.err = errors.New(rec.Error)
			}
		default:
			continue
		}
		if j == nil {
			continue
		}
		if ev.kind == evTerminal && !j.terminal() {
			// A terminal record carries the job's total charge, part of
			// which its retry records have already folded.
			ev.attempts -= j.attempts
			// A record without spans (one written before terminal records
			// carried them) restores a job with no trace.
			j.trace = &jobTrace{ctx: trace.New(j.id), spans: rec.Spans}
			j.workerTrace = rec.WorkerTrace
		}
		j.advance(ev)
	}
	now := c.now()
	for _, j := range order {
		c.bumpSeq(j.id)
		c.jobs[j.id] = j
		c.order = append(c.order, j.id)
		if !j.terminal() && j.attempts >= c.maxRetries {
			// The old incarnation charged the last retry but stopped before
			// recording the exhausted terminal: record it now, as emit would
			// have, instead of dispatching again.
			j.trace = newJobTrace(j.id, now)
			c.raise(nil, j, event{kind: evTerminal, at: now, status: "failed",
				err: &ErrRetriesExhausted{ID: j.id, Attempts: j.attempts, Last: lastCause[j]}})
		}
		if j.terminal() {
			if j.status == "done" && j.result != nil && !j.cached {
				c.byDigest.LoadOrStore(j.digest, j)
			}
			c.replay.Restored++
			continue
		}
		// Queued or mid-flight at crash time: re-admit. The idempotent id
		// means a run the old incarnation already started is re-polled, not
		// re-executed. The new incarnation starts a fresh timeline — the
		// pre-crash spans died with the process; only terminal jobs replay
		// their recorded traces.
		c.raise(&QueuedJob{ID: j.id, Tenant: j.tenant, Priority: j.priority, Enqueued: now, Payload: j},
			j, event{kind: evRestore, since: now, at: now, annot: "replay"})
		c.replay.Requeued++
	}
	c.evictLocked("")
}

// bumpSeq advances the auto-id sequence past a replayed "jNNNN" id so
// new auto-named jobs cannot collide with replayed ones.
func (c *Coordinator) bumpSeq(id string) {
	if !strings.HasPrefix(id, "j") {
		return
	}
	if n, err := strconv.Atoi(id[1:]); err == nil && n > c.seq {
		c.seq = n
	}
}

// Job looks up a tracked job.
func (c *Coordinator) Job(id string) (*cjob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// Jobs lists tracked jobs in submission order.
func (c *Coordinator) Jobs() []JobView {
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	jobs := make([]*cjob, len(ids))
	for i, id := range ids {
		jobs[i] = c.jobs[id]
	}
	c.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

func (c *Coordinator) dispatchLoop() {
	defer c.wg.Done()
	for {
		qj, ok := c.adm.Next(c.ctx)
		if !ok {
			return
		}
		c.dispatch(qj)
	}
}

// RetryBackoff is the capped-exponential backoff with deterministic
// seeded jitter before retry attempt (1-based) of job id: the raw delay
// doubles from base up to cap, and the jitter scales it into
// [0.5, 1.0) of that value by a pure hash of (seed, id, attempt) — two
// coordinators with the same seed back off identically, which is what
// keeps seeded chaos schedules reproducible.
func RetryBackoff(seed uint64, id string, attempt int, base, cap time.Duration) time.Duration {
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	if cap <= 0 {
		cap = 2 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := mix64(seed ^ RingKey(id) ^ mix64(uint64(attempt)))
	frac := 0.5 + float64(h>>11)/(1<<53)*0.5
	return time.Duration(float64(d) * frac)
}

// sanitizeCause strips url.Error wrappers (whose text embeds the target
// URL, ephemeral port included) so retry causes — which end up in the
// job table — stay deterministic across runs.
func sanitizeCause(err error) error {
	var ue *url.Error
	if errors.As(err, &ue) && ue.Err != nil {
		return ue.Err
	}
	return err
}

// bounce is the retry event of a failed attempt that began at since:
// it charges one retry unit, annotated with the sanitized cause unless
// annot overrides it.
func (c *Coordinator) bounce(since time.Time, cause error, annot string) event {
	cause = sanitizeCause(cause)
	if annot == "" {
		annot = "retry: " + cause.Error()
	}
	return event{kind: evRetry, since: since, at: c.now(), attempts: 1, err: cause, annot: annot}
}

// failure is the terminal event of a job the coordinator gives up on.
func (c *Coordinator) failure(cause error) event {
	return event{kind: evTerminal, at: c.now(), status: "failed", err: cause}
}

// dispatch forwards one claimed job to its ring owner and follows it to
// a terminal state: it makes the network calls and picks the event each
// outcome raises. Transport failures and backpressure consume retry
// budget; breaker-open and no-owner stalls do not (no request was made).
func (c *Coordinator) dispatch(qj *QueuedJob) {
	j := qj.Payload.(*cjob)
	if c.expired(j) {
		c.raise(qj, j, c.failure(fmt.Errorf("cluster: job %s deadline exceeded before dispatch", j.id)))
		return
	}
	owner, ok := c.reg.OwnerOf(j.id)
	if !ok {
		// No live workers; hold the job until one registers.
		c.raise(qj, j, event{kind: evStall, at: c.now(), annot: "no-owner"})
		return
	}
	if !c.breakers.Allow(owner.ID) {
		// The owner's circuit is open: don't burn budget on a worker known
		// to be failing; wait out a base backoff and try again (the ring
		// may route elsewhere, or the breaker may half-open).
		c.metrics.Counter("wavepimctl.breaker_rejections").Inc()
		c.raise(qj, j, event{kind: evStall, at: c.now(), annot: "breaker-open:" + owner.ID})
		return
	}
	c.raise(qj, j, event{kind: evDispatch, at: c.now(), worker: owner.ID})

	postAt := c.now()
	code, respBody, err := c.do("POST", owner.URL+"/v1/runs", j.body, trace.Header, trace.New(j.id).String())
	switch {
	case err != nil:
		c.breakers.Failure(owner.ID)
		c.reg.MarkDead(owner.ID)
		c.raise(qj, j, c.bounce(postAt, err, ""))
		return
	case code == http.StatusServiceUnavailable:
		// Worker queue full, draining, or flapping: consume budget and
		// back off; the ring may route elsewhere by then.
		c.breakers.Failure(owner.ID)
		c.raise(qj, j, c.bounce(postAt, fmt.Errorf("worker %s bounced job: 503", owner.ID), ""))
		return
	case code != http.StatusOK && code != http.StatusAccepted:
		ev := c.failure(fmt.Errorf("worker %s rejected job: %d %s",
			owner.ID, code, strings.TrimSpace(string(respBody))))
		ev.since, ev.annot = postAt, fmt.Sprintf("rejected: %d", code)
		c.raise(qj, j, ev)
		return
	}
	// Accepted (or already known from an earlier attempt).
	c.breakers.Success(owner.ID)
	c.raise(qj, j, event{kind: evAccept, since: postAt, at: c.now(), worker: owner.ID})

	for {
		if c.expired(j) {
			c.raise(qj, j, c.failure(
				fmt.Errorf("cluster: job %s deadline exceeded waiting on worker %s", j.id, owner.ID)))
			return
		}
		code, respBody, err := c.do("GET", owner.URL+"/v1/runs/"+j.id, nil)
		switch {
		case err != nil:
			c.breakers.Failure(owner.ID)
			c.reg.MarkDead(owner.ID)
			c.raise(qj, j, c.bounce(postAt, err, ""))
			return
		case code == http.StatusNotFound:
			// The worker restarted and lost the run: re-dispatch under the
			// same idempotent id.
			c.raise(qj, j, c.bounce(postAt, fmt.Errorf("worker %s lost run", owner.ID), "retry: worker lost run"))
			return
		case code != http.StatusOK:
			c.raise(qj, j, c.failure(fmt.Errorf("worker %s run status: %d", owner.ID, code)))
			return
		}
		var v struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(respBody, &v); err != nil {
			c.raise(qj, j, c.failure(fmt.Errorf("worker %s run view: %v", owner.ID, err)))
			return
		}
		if v.Status == "done" || v.Status == "failed" {
			ev := event{kind: evTerminal, since: c.now(), status: v.Status, result: respBody}
			if v.Error != "" {
				ev.err = errors.New(v.Error)
			}
			ev.workerTrace, ev.report = c.fetchWorkerTrace(j.id, owner)
			ev.at = c.now()
			c.raise(qj, j, ev)
			return
		}
		select {
		case <-c.ctx.Done():
			return
		case <-time.After(c.poll):
		}
	}
}

// fetchWorkerTrace pulls the owning worker's Chrome trace for a run that
// just went terminal (the worker publishes it in the same critical
// section that flips the run status, so it is ready by now), plus the
// annotation of the fetch's report span. An unreachable worker or a
// malformed document degrades to a coordinator-only merged trace rather
// than an error.
func (c *Coordinator) fetchWorkerTrace(id string, owner Worker) ([]byte, string) {
	code, body, err := c.do("GET", owner.URL+"/v1/runs/"+id+"/trace", nil)
	if err == nil && code == http.StatusOK && trace.Valid(body) {
		return body, "worker:" + owner.ID
	}
	return nil, "worker:" + owner.ID + " (trace unavailable)"
}

// do runs one control-plane request and slurps the body. The body rides
// a bytes.Reader so net/http sets ContentLength and GetBody — retried
// and redirected POSTs replay the payload without an extra copy. hdr is
// optional key/value pairs of extra headers (the trace context rides
// here).
func (c *Coordinator) do(method, url string, body []byte, hdr ...string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}
