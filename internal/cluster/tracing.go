package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"wavepim/internal/cluster/trace"
)

// The coordinator side of the distributed-tracing pipeline (see
// internal/cluster/trace for the identity scheme and the merge format).
// Each tracked job carries a jobTrace: an append-only list of completed
// stage spans plus the two stages that can be open at any moment — the
// queue wait and the worker execution. All mutation happens under the
// owning cjob's mutex; span times are seconds relative to the job's
// submission instant, so a frozen coordinator clock yields an all-zero,
// byte-stable timeline.

// jobTrace is one job's coordinator-side timeline.
type jobTrace struct {
	ctx   trace.Context
	epoch time.Time // submission instant; the trace's time zero

	spans  []trace.Span
	counts map[string]int // per-stage occurrence counters

	queueStart time.Time // open queue wait (zero: none)
	queueAnnot string
	execStart  time.Time // open worker execution (zero: none)
	execAnnot  string

	// Accumulated stage seconds for the latency decomposition. The
	// dispatch bucket absorbs everything between queue and execution:
	// attempts, stalls, backoffs, and the report fetch.
	queueSec, dispatchSec, execSec float64
}

func newJobTrace(id string, now time.Time) *jobTrace {
	return &jobTrace{ctx: trace.New(id), epoch: now, counts: map[string]int{}}
}

// rel converts an absolute instant to trace-relative seconds.
func (tl *jobTrace) rel(t time.Time) float64 {
	if t.Before(tl.epoch) {
		return 0
	}
	return t.Sub(tl.epoch).Seconds()
}

// record appends one completed span and feeds its duration into the
// stage decomposition. Caller holds the owning cjob's mutex.
func (tl *jobTrace) record(stage string, start, end time.Time, annot string) {
	s := trace.Span{
		Stage:      stage,
		Occurrence: tl.counts[stage],
		Start:      tl.rel(start),
		Dur:        tl.rel(end) - tl.rel(start),
		Annot:      annot,
	}
	tl.counts[stage]++
	tl.spans = append(tl.spans, s)
	switch stage {
	case trace.StageQueue:
		tl.queueSec += s.Dur
	case trace.StageExec:
		tl.execSec += s.Dur
	case trace.StageDispatch, trace.StageStall, trace.StageBackoff, trace.StageReport:
		tl.dispatchSec += s.Dur
	}
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
	tl.spans = append(tl.spans, trace.Span{
		Stage: trace.StageJob, Occurrence: 0,
		Start: 0, Dur: tl.rel(now), Annot: status,
	})
}

// stageSeconds snapshots the latency decomposition. E2E is zero until
// finalize has run (it is the root span's duration).
func (tl *jobTrace) stageSeconds() StageSeconds {
	ss := StageSeconds{
		QueueSec:    tl.queueSec,
		DispatchSec: tl.dispatchSec,
		ExecSec:     tl.execSec,
	}
	for _, s := range tl.spans {
		if s.Stage == trace.StageJob {
			ss.E2ESec = s.Dur
			break
		}
	}
	return ss
}

// merged renders the cluster-level Chrome trace for this timeline plus
// the owning worker's trace (either may be absent). Returns nil on a
// malformed worker document — the coordinator's own spans are never
// worth serving with a parse error behind them.
func (tl *jobTrace) merged(workerID string, workerTrace []byte) []byte {
	var buf bytes.Buffer
	if err := trace.Merge(&buf, tl.ctx, tl.spans, workerID, workerTrace); err != nil {
		return nil
	}
	return buf.Bytes()
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

// traceDigestHex content-addresses a merged trace for the journal ("" for
// a job without one).
func traceDigestHex(doc []byte) string {
	if len(doc) == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", trace.Digest(doc))
}

// restoreTraceDoc rebuilds the served merged-trace bytes from a journaled
// terminal record. The journal stores the document compacted (a
// json.RawMessage is compacted when the record is marshaled), so the
// restore re-indents it exactly the way trace.Merge's encoder does and
// then proves the result against the recorded digest — a mismatch drops
// the trace (nil) rather than serving bytes that never existed.
func restoreTraceDoc(compact json.RawMessage, digestHex string) []byte {
	if len(compact) == 0 || digestHex == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, compact, "", " "); err != nil {
		return nil
	}
	buf.WriteByte('\n')
	if traceDigestHex(buf.Bytes()) != digestHex {
		return nil
	}
	return buf.Bytes()
}
