// Command wavepimd is the long-running telemetry-serving daemon: it
// executes functional Wave-PIM simulation jobs submitted over HTTP and
// exposes the full observability surface of the reproduction —
// Prometheus metrics, structured JSONL event logs, live SSE event
// streams, Chrome traces, and fault flight-recorder dumps. The daemon
// logic lives in internal/serve; this shell parses flags, wires signals,
// and (optionally) keeps the worker registered with a wavepimctl
// coordinator.
//
//	wavepimd -addr :8080 &
//	curl -s -X POST localhost:8080/v1/runs -d '{"equation":"acoustic","steps":4,"faults":"seed=4,flip=1e-5,stuck=1e-6"}'
//	curl -s localhost:8080/v1/metrics | grep sim_fault_rung_events
//
// Endpoints (all under /v1; the pre-/v1 unversioned paths answer 404):
//
//	POST /v1/runs              submit a job (JobSpec JSON); 202 + {"id": ...}
//	                           (resubmitting a client-supplied id: 200 + same id)
//	GET  /v1/runs              list runs with status and fault report
//	GET  /v1/runs/{id}         one run's status
//	GET  /v1/runs/{id}/events  the run's event log as SSE (replay + live follow)
//	GET  /v1/runs/{id}/trace   the run's Chrome trace (chrome://tracing)
//	GET  /v1/runs/{id}/flight  the run's flight-recorder dump (404 if none)
//	GET  /v1/metrics           Prometheus text exposition (shared registry)
//	GET  /v1/healthz           liveness
//	GET  /v1/readyz            readiness (503 while draining)
//	     /debug/pprof/*        Go runtime profiles (not under /v1)
//
// A JobSpec may carry "topology" (htree | bus | mesh | torus | flatfly |
// dragonfly) to pick the tile interconnect; omitted means htree. A bad
// spec (unknown equation or topology, refine or np out of range, a
// negative count, a malformed faults/recover string, a bad id) gets a
// 400 bad_request before it is queued; cluster.JobSpec.Normalize holds
// the defaults and bounds. A panic inside a run fails that run (reason
// "panic", with a flight dump) instead of the daemon. Every error
// response is the typed JSON envelope {code, message, retryable}.
//
// A submission may carry an X-Wavepim-Trace header (set by wavepimctl
// when it dispatches a job): the worker adopts the cluster trace id, so
// the run view, its event lines, and any flight dump all attribute back
// to the coordinator's merged per-job trace.
//
// Shutdown (SIGINT/SIGTERM) is graceful: the worker deregisters from its
// coordinator (if any), readiness flips to 503, queued and in-flight
// runs drain, then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent simulation jobs")
	queue := flag.Int("queue", 16, "job queue capacity (submits beyond it get 503)")
	traceCap := flag.Int("tracecap", 4096, "per-run span ring capacity")
	logLevel := flag.String("loglevel", "info", "event log level: debug, info, warn, error")
	coordinator := flag.String("coordinator", "", "wavepimctl base URL to register with (empty: standalone)")
	name := flag.String("name", "", "worker id for cluster registration (default: the listen address)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default: http://<addr>)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "cluster re-registration interval")
	flag.Parse()

	srv := serve.NewServer(serve.Options{
		Workers:  *workers,
		QueueCap: *queue,
		TraceCap: *traceCap,
		LogW:     os.Stderr,
		Level:    eventlog.ParseLevel(*logLevel),
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	srv.Log().Info("daemon.listening", eventlog.Str("addr", *addr), eventlog.Int("workers", *workers))

	var hb *cluster.Heartbeater
	if *coordinator != "" {
		id := *name
		if id == "" {
			id = *addr
		}
		url := *advertise
		if url == "" {
			url = "http://" + *addr
		}
		hb = &cluster.Heartbeater{Coordinator: *coordinator, ID: id, URL: url, Interval: *heartbeat}
		if err := hb.Start(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		srv.Log().Info("daemon.registered", eventlog.Str("coordinator", *coordinator), eventlog.Str("worker", id))
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		srv.Log().Info("daemon.shutdown", eventlog.Str("signal", sig.String()))
		if hb != nil {
			hb.Stop()
			if err := hb.Deregister(); err != nil {
				srv.Log().Warn("daemon.deregister_failed", eventlog.Str("error", err.Error()))
			}
		}
		srv.Drain() // readiness flips to 503; queued + in-flight runs finish
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
