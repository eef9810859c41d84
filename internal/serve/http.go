package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"

	"wavepim/internal/cluster"
	"wavepim/internal/cluster/trace"
	"wavepim/internal/obs/eventlog"
)

// Handler builds the daemon's mux. The API lives under /v1. pprof has one
// mount, at its conventional /debug/pprof/ root: the pprof handlers parse
// the profile name out of that exact path, and the index page links to
// profiles under it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/runs/{id}/flight", s.handleFlight)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleSubmit accepts a job. When the spec carries a client id, the
// submission is idempotent: an id the server already tracks returns the
// existing run (200) instead of enqueueing a duplicate (202). This is
// what makes coordinator retries after a forwarding failure safe.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&spec); err != nil {
		cluster.WriteAPIError(w, http.StatusBadRequest, cluster.CodeBadRequest, false, "bad job spec: %v", err)
		return
	}
	spec, err := spec.Normalize()
	if err != nil {
		cluster.WriteAPIError(w, http.StatusBadRequest, cluster.CodeBadRequest, false, "%v", err)
		return
	}
	// A coordinator-dispatched job carries its trace context; the worker
	// adopts the trace id so run views, event lines, and flight dumps all
	// attribute back to the cluster-level timeline. A malformed header is
	// ignored (standalone clients never send one).
	traceID := ""
	if v := req.Header.Get(trace.Header); v != "" {
		if tcx, err := trace.Parse(v); err == nil {
			traceID = tcx.Hex()
		}
	}
	clientID := spec.ID

	s.mu.Lock()
	if clientID != "" {
		if existing, ok := s.runs[clientID]; ok {
			same := existing.spec.Digest() == spec.Digest()
			s.mu.Unlock()
			if !same {
				// The id is taken by a run with different content. Returning
				// the existing run would silently hand the caller someone
				// else's results; refuse instead.
				cluster.WriteAPIError(w, http.StatusConflict, cluster.CodeConflict, false,
					"job id %q already tracked with different content", clientID)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]string{"id": existing.id})
			return
		}
	}
	if s.draining {
		s.mu.Unlock()
		cluster.WriteAPIError(w, http.StatusServiceUnavailable, cluster.CodeDraining, true, "shutting down")
		return
	}
	id := clientID
	if id == "" {
		s.seq++
		id = fmt.Sprintf("r%04d", s.seq)
	}
	r := &run{id: id, spec: spec, status: "queued", trace: traceID, tap: eventlog.NewTap()}
	select {
	case s.jobs <- r:
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
	default:
		if clientID == "" {
			s.seq--
		}
		s.mu.Unlock()
		s.reg.CounterVec("wavepimd.runs", "status").With("rejected").Inc()
		cluster.WriteAPIError(w, http.StatusServiceUnavailable, cluster.CodeQueueFull, true, "job queue full")
		return
	}
	s.mu.Unlock()

	s.reg.Gauge("wavepimd.queue_depth").Add(1)
	s.log.Info("daemon.run_queued", eventlog.Str("run", r.id), eventlog.Str("equation", spec.Equation))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": r.id})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	views := make([]RunView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.runs[id].view())
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(views)
}

func (s *Server) lookup(req *http.Request) (*run, bool) {
	s.mu.Lock()
	r, ok := s.runs[req.PathValue("id")]
	s.mu.Unlock()
	return r, ok
}

func (s *Server) handleRun(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		cluster.WriteAPIError(w, http.StatusNotFound, cluster.CodeNotFound, false, "no such run")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(r.view())
}

// handleEvents streams the run's event log as SSE: full replay from the
// first event, then live follow until the run finishes (the tap closes)
// or the client disconnects. The frames are a pure function of the tap's
// lines, so replaying a finished run twice yields identical bytes.
func (s *Server) handleEvents(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		cluster.WriteAPIError(w, http.StatusNotFound, cluster.CodeNotFound, false, "no such run")
		return
	}
	r.mu.Lock()
	tap := r.tap
	r.mu.Unlock()

	cluster.SSEHeaders(w)
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	i := 0
	for {
		lines, closed, wait := tap.Since(i)
		for _, line := range lines {
			if err := cluster.WriteSSEEvent(w, i, line); err != nil {
				return
			}
			i++
		}
		if len(lines) > 0 && fl != nil {
			fl.Flush()
		}
		if closed {
			return
		}
		select {
		case <-wait:
		case <-req.Context().Done():
			return
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		cluster.WriteAPIError(w, http.StatusNotFound, cluster.CodeNotFound, false, "no such run")
		return
	}
	r.mu.Lock()
	sink := r.sink
	status := r.status
	r.mu.Unlock()
	if sink == nil {
		cluster.WriteAPIError(w, http.StatusConflict, cluster.CodeNotReady, true, "run is %s; trace not available yet", status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	sink.WriteTrace(w)
}

func (s *Server) handleFlight(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req)
	if !ok {
		cluster.WriteAPIError(w, http.StatusNotFound, cluster.CodeNotFound, false, "no such run")
		return
	}
	r.mu.Lock()
	dump := r.dump
	r.mu.Unlock()
	if dump == nil {
		cluster.WriteAPIError(w, http.StatusNotFound, cluster.CodeNotFound, false, "run has no flight dump")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	dump.WriteJSON(w)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteProm(w); err != nil {
		// The exposition bytes are already flushed; a latched registration
		// conflict is a programming error worth surfacing loudly in logs.
		s.log.Error("daemon.metrics_conflict", eventlog.Str("error", err.Error()))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		cluster.WriteAPIError(w, http.StatusServiceUnavailable, cluster.CodeDraining, true, "draining")
		return
	}
	io.WriteString(w, "ready\n")
}
