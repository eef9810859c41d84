package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
)

// Handler builds the coordinator's mux. The API lives under /v1.
//
//	POST /v1/jobs             submit a job (JobSpec JSON); 202 + {"id": ...};
//	                          duplicates of a finished job: 200 + cached report
//	GET  /v1/jobs             list jobs in submission order
//	GET  /v1/jobs/{id}        one job (finished: the worker's report, verbatim)
//	GET  /v1/jobs/{id}/events the job's event stream, proxied from its worker
//	GET  /v1/jobs/{id}/trace  the merged cluster-level Chrome trace (409 while
//	                          the job is live; replayed terminal jobs serve
//	                          their digest-verified journaled timeline)
//	POST /v1/register         worker heartbeat (RegisterRequest JSON)
//	POST /v1/deregister       worker draining handoff
//	GET  /v1/workers          live membership, sorted by id
//	GET  /v1/metrics          aggregated Prometheus exposition (all workers + own)
//	GET  /v1/healthz          liveness
//	GET  /v1/readyz           readiness (503 once closed)
//
// Errors are the APIError envelope ({code, message, retryable}).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", c.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", c.handleJobTrace)
	mux.HandleFunc("POST /v1/register", c.handleRegister)
	mux.HandleFunc("POST /v1/deregister", c.handleDeregister)
	mux.HandleFunc("GET /v1/workers", c.handleWorkers)
	mux.HandleFunc("GET /v1/metrics", c.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/readyz", c.handleReadyz)
	return mux
}

// coordError writes the typed APIError envelope.
func coordError(w http.ResponseWriter, status int, code string, retryable bool, format string, args ...any) {
	WriteAPIError(w, status, code, retryable, format, args...)
}

// writeTerminal writes a finished job: the worker's report bytes
// verbatim when present (so two reads of the same finished job — or a
// resubmission of its id — are byte-identical), the view otherwise.
func writeTerminal(w http.ResponseWriter, j *cjob) {
	j.mu.Lock()
	result := j.result
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if result != nil {
		w.Write(result)
		return
	}
	json.NewEncoder(w).Encode(j.view())
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&spec); err != nil {
		coordError(w, http.StatusBadRequest, CodeBadRequest, false, "bad job spec: %v", err)
		return
	}
	j, existed, err := c.Submit(spec)
	if err != nil {
		var quota *ErrQuota
		var bad *SpecError
		switch {
		case errors.As(err, &quota):
			coordError(w, http.StatusTooManyRequests, CodeQuota, true, "%v", err)
		case errors.As(err, &bad):
			coordError(w, http.StatusBadRequest, CodeBadRequest, false, "%v", err)
		default:
			coordError(w, http.StatusServiceUnavailable, CodeDraining, true, "%v", err)
		}
		return
	}
	j.mu.Lock()
	status, terminal := j.status, j.terminal()
	j.mu.Unlock()
	if terminal {
		// Duplicate of a finished job or a content-cache hit: the report,
		// byte-for-byte.
		writeTerminal(w, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if !existed {
		w.WriteHeader(http.StatusAccepted)
	}
	json.NewEncoder(w).Encode(map[string]string{"id": j.id, "status": status})
}

func (c *Coordinator) handleJobs(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Jobs())
}

func (c *Coordinator) handleJob(w http.ResponseWriter, req *http.Request) {
	j, ok := c.Job(req.PathValue("id"))
	if !ok {
		coordError(w, http.StatusNotFound, CodeNotFound, false, "no such job")
		return
	}
	j.mu.Lock()
	terminal := j.terminal()
	j.mu.Unlock()
	if terminal {
		writeTerminal(w, j)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.view())
}

// handleJobTrace serves the job's merged cluster-level Chrome trace —
// the coordinator's stage timeline (process 1) plus the owning worker's
// span trace (process 2), one document. Live jobs answer 409 (retryable:
// the trace is merged at the terminal transition); a terminal job that
// lost its trace (journal replay with a failed digest check, or a merge
// error) answers 404.
func (c *Coordinator) handleJobTrace(w http.ResponseWriter, req *http.Request) {
	j, ok := c.Job(req.PathValue("id"))
	if !ok {
		coordError(w, http.StatusNotFound, CodeNotFound, false, "no such job")
		return
	}
	j.mu.Lock()
	terminal, doc, status := j.terminal(), j.traceDoc, j.status
	j.mu.Unlock()
	if !terminal {
		coordError(w, http.StatusConflict, CodeNotReady, true, "job is %s; trace not merged yet", status)
		return
	}
	if doc == nil {
		coordError(w, http.StatusNotFound, CodeNotFound, false, "job has no trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// handleJobEvents proxies the owning worker's SSE stream for a job.
func (c *Coordinator) handleJobEvents(w http.ResponseWriter, req *http.Request) {
	j, ok := c.Job(req.PathValue("id"))
	if !ok {
		coordError(w, http.StatusNotFound, CodeNotFound, false, "no such job")
		return
	}
	j.mu.Lock()
	workerID := j.worker
	j.mu.Unlock()
	var workerURL string
	for _, wk := range c.reg.Workers() {
		if wk.ID == workerID {
			workerURL = wk.URL
			break
		}
	}
	if workerURL == "" {
		coordError(w, http.StatusNotFound, CodeNotFound, false, "job has no live worker (status %s)", j.view().Status)
		return
	}
	// SSE streams outlive any sane control-plane timeout; use a bare
	// client and tie the upstream to the downstream request context.
	up, err := http.NewRequestWithContext(req.Context(), "GET", workerURL+"/v1/runs/"+j.id+"/events", nil)
	if err != nil {
		coordError(w, http.StatusBadGateway, CodeUpstream, true, "%v", err)
		return
	}
	resp, err := http.DefaultTransport.RoundTrip(up)
	if err != nil {
		coordError(w, http.StatusBadGateway, CodeUpstream, true, "worker stream: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		coordError(w, http.StatusBadGateway, CodeUpstream, true, "worker stream: status %d", resp.StatusCode)
		return
	}
	SSEHeaders(w)
	w.WriteHeader(http.StatusOK)
	ProxySSE(w, resp.Body)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, req *http.Request) {
	var r RegisterRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&r); err != nil {
		coordError(w, http.StatusBadRequest, CodeBadRequest, false, "bad register body: %v", err)
		return
	}
	if r.ID == "" || r.URL == "" {
		coordError(w, http.StatusBadRequest, CodeBadRequest, false, "register needs id and url")
		return
	}
	isNew := c.reg.Heartbeat(r.ID, r.URL)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]bool{"new": isNew})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, req *http.Request) {
	var r RegisterRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<16)).Decode(&r); err != nil {
		coordError(w, http.StatusBadRequest, CodeBadRequest, false, "bad deregister body: %v", err)
		return
	}
	was := c.reg.Deregister(r.ID)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]bool{"removed": was})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.reg.Workers())
}

// handleMetrics aggregates every live worker's exposition with the
// coordinator's own registry into one byte-deterministic exposition:
// worker samples gain worker="<id>" labels; given the same reachable
// workers in the same states, two scrapes are identical bytes.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	workers := c.reg.Workers()
	d := c.adm.Depths()
	c.metrics.Gauge("wavepimctl.workers").Set(float64(len(workers)))
	for p := Priority(0); p < numPriorities; p++ {
		c.metrics.GaugeVec("wavepimctl.queue_depth", "priority").
			With(p.String()).Set(float64(d.ByClass[p]))
		age := 0.0
		if !d.Oldest[p].IsZero() {
			if a := c.now().Sub(d.Oldest[p]).Seconds(); a > 0 {
				age = a
			}
		}
		c.metrics.GaugeVec("wavepimctl.queue_age_seconds", "priority").
			With(p.String()).Set(age)
	}
	if c.journal != nil {
		c.metrics.Gauge("wavepimctl.journal_records").Set(float64(c.journal.Records()))
	}
	for _, bv := range c.breakers.Snapshot() {
		c.metrics.GaugeVec("wavepimctl.breaker_state", "worker").
			With(bv.Worker).Set(float64(bv.State))
	}

	var own bytes.Buffer
	if err := c.metrics.WriteProm(&own); err != nil {
		coordError(w, http.StatusInternalServerError, CodeInternal, false, "%v", err)
		return
	}
	sources := []PromSource{{Label: "", Text: own.String()}}
	for _, wk := range workers { // sorted by ID
		code, body, err := c.do("GET", wk.URL+"/v1/metrics", nil)
		if err != nil || code != http.StatusOK {
			continue // an unreachable worker drops out; its TTL will evict it
		}
		sources = append(sources, PromSource{Label: wk.ID, Text: string(body)})
	}
	var merged bytes.Buffer
	if err := MergeProm(&merged, sources); err != nil {
		coordError(w, http.StatusBadGateway, CodeUpstream, true, "merge: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(merged.Bytes())
}

// handleReadyz reports readiness plus what the startup journal replay
// did — operators checking a restarted coordinator see at a glance how
// many jobs were restored with their reports and how many were
// re-admitted for dispatch.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-c.ctx.Done():
		coordError(w, http.StatusServiceUnavailable, CodeDraining, true, "closed")
	default:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Ready   bool        `json:"ready"`
			Journal bool        `json:"journal"`
			Replay  ReplayStats `json:"replay"`
		}{Ready: true, Journal: c.journal != nil, Replay: c.Replay()})
	}
}
