package cluster

import (
	"time"

	"wavepim/internal/cluster/trace"
)

// The coordinator side of the distributed-tracing pipeline (see
// internal/cluster/trace for the identity scheme and the merge format).
// Each tracked job carries a jobTrace: an append-only list of completed
// stage spans plus the two stages that can be open at any moment — the
// queue wait and the worker execution. The span list is the job's only
// timeline record: the latency decomposition is summed from it, the
// journal carries it, and GET /v1/jobs/{id}/trace merges it on read. All
// mutation happens under the owning cjob's mutex; span times are seconds
// relative to the job's submission instant, so a frozen coordinator clock
// yields an all-zero, byte-stable timeline.

// jobTrace is one job's coordinator-side timeline.
type jobTrace struct {
	ctx   trace.Context
	epoch time.Time // submission instant; the trace's time zero

	spans []trace.Span

	queueStart time.Time // open queue wait (zero: none)
	queueAnnot string
	execStart  time.Time // open worker execution (zero: none)
	execAnnot  string
}

func newJobTrace(id string, now time.Time) *jobTrace {
	return &jobTrace{ctx: trace.New(id), epoch: now}
}

// rel converts an absolute instant to trace-relative seconds.
func (tl *jobTrace) rel(t time.Time) float64 {
	if t.Before(tl.epoch) {
		return 0
	}
	return t.Sub(tl.epoch).Seconds()
}

// record appends one completed span; its occurrence is the number of
// earlier spans of its stage. Caller holds the owning cjob's mutex.
func (tl *jobTrace) record(stage string, start, end time.Time, annot string) {
	n := 0
	for _, s := range tl.spans {
		if s.Stage == stage {
			n++
		}
	}
	tl.spans = append(tl.spans, trace.Span{
		Stage:      stage,
		Occurrence: n,
		Start:      tl.rel(start),
		Dur:        tl.rel(end) - tl.rel(start),
		Annot:      annot,
	})
}

// openQueue starts a queue-wait span (annotated with the job's class).
func (tl *jobTrace) openQueue(now time.Time, annot string) {
	tl.queueStart, tl.queueAnnot = now, annot
}

// closeQueue ends the open queue wait, if any.
func (tl *jobTrace) closeQueue(now time.Time) {
	if tl.queueStart.IsZero() {
		return
	}
	tl.record(trace.StageQueue, tl.queueStart, now, tl.queueAnnot)
	tl.queueStart = time.Time{}
}

// openExec starts a worker-execution span (annotated with the worker id).
func (tl *jobTrace) openExec(now time.Time, annot string) {
	tl.execStart, tl.execAnnot = now, annot
}

// closeExec ends the open execution span; a non-empty annot (the retry
// cause of an execution that did not reach a terminal state) replaces
// the worker annotation.
func (tl *jobTrace) closeExec(now time.Time, annot string) {
	if tl.execStart.IsZero() {
		return
	}
	if annot == "" {
		annot = tl.execAnnot
	}
	tl.record(trace.StageExec, tl.execStart, now, annot)
	tl.execStart = time.Time{}
}

// endAttempt closes what a dispatch outcome ends: the open worker
// execution when there is one, else the POST attempt that began at
// since.
func (tl *jobTrace) endAttempt(since, at time.Time, annot string) {
	if !tl.execStart.IsZero() {
		tl.closeExec(at, annot)
		return
	}
	tl.record(trace.StageDispatch, since, at, annot)
}

// finalize closes any open stage and appends the root job span. Called
// exactly once, at the terminal transition.
func (tl *jobTrace) finalize(now time.Time, status string) {
	tl.closeQueue(now)
	tl.closeExec(now, "")
	tl.record(trace.StageJob, tl.epoch, now, status)
}

// stageSeconds sums the closed spans into the latency decomposition. The
// dispatch bucket absorbs everything between queue and execution:
// attempts, stalls, backoffs, and the report fetch. E2E is zero until
// finalize has run (it is the root span's duration).
func (tl *jobTrace) stageSeconds() StageSeconds {
	var ss StageSeconds
	for _, s := range tl.spans {
		switch s.Stage {
		case trace.StageQueue:
			ss.QueueSec += s.Dur
		case trace.StageExec:
			ss.ExecSec += s.Dur
		case trace.StageDispatch, trace.StageStall, trace.StageBackoff, trace.StageReport:
			ss.DispatchSec += s.Dur
		case trace.StageJob:
			ss.E2ESec = s.Dur
		}
	}
	return ss
}

// StageSeconds is the per-job latency decomposition in the /v1/jobs
// table: time queued, time spent dispatching (attempts + stalls +
// backoffs + report fetch), time executing on a worker, and the
// submission-to-terminal total. Field order is fixed by the struct.
type StageSeconds struct {
	QueueSec    float64 `json:"queue_sec"`
	DispatchSec float64 `json:"dispatch_sec"`
	ExecSec     float64 `json:"exec_sec"`
	E2ESec      float64 `json:"e2e_sec"`
}

// stageFamilies are the four HistogramVec families of the latency
// decomposition, all labeled (priority, outcome).
var stageFamilies = []string{
	"wavepimctl.job_queue_seconds",
	"wavepimctl.dispatch_seconds",
	"wavepimctl.exec_seconds",
	"wavepimctl.e2e_seconds",
}

// observeStages feeds one terminal job's decomposition into the four
// histogram families.
func (c *Coordinator) observeStages(priority, outcome string, ss StageSeconds) {
	vals := [...]float64{ss.QueueSec, ss.DispatchSec, ss.ExecSec, ss.E2ESec}
	for i, fam := range stageFamilies {
		c.metrics.HistogramVec(fam, "priority", "outcome").With(priority, outcome).Observe(vals[i])
	}
}
