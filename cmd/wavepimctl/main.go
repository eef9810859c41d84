// Command wavepimctl is the cluster coordinator: it shards simulation
// jobs across a fleet of registered wavepimd workers with a
// consistent-hash ring, applies per-tenant admission control with
// priority queues on top of the workers' own backpressure, and
// aggregates the fleet's telemetry into single deterministic views.
//
//	wavepimctl -addr :9090 &
//	wavepimd -addr :8081 -coordinator http://127.0.0.1:9090 -name w1 &
//	wavepimd -addr :8082 -coordinator http://127.0.0.1:9090 -name w2 &
//	curl -s -X POST localhost:9090/v1/jobs -d '{"equation":"acoustic","steps":4,"id":"demo-1"}'
//	curl -s localhost:9090/v1/jobs/demo-1
//	curl -s localhost:9090/v1/metrics | grep 'worker="w1"'
//
// Endpoints (all under /v1; the pre-/v1 unversioned paths answer 404):
//
//	POST /v1/jobs             submit a job; 202 + {"id": ...}. Resubmitting a
//	                          finished job's id (or a content-identical spec)
//	                          returns the cached report, byte-for-byte.
//	GET  /v1/jobs             list jobs in submission order (with per-stage latency)
//	GET  /v1/jobs/{id}        one job (finished: the worker's report, verbatim)
//	GET  /v1/jobs/{id}/events the job's event stream, proxied from its worker
//	GET  /v1/jobs/{id}/trace  the merged cluster-level Chrome trace: coordinator
//	                          spans (admission, queue, dispatch attempts, backoff,
//	                          breaker stalls) plus the owning worker's execution
//	                          trace, one document per job
//	POST /v1/register         worker heartbeat
//	POST /v1/deregister       worker draining handoff
//	GET  /v1/workers          live membership
//	GET  /v1/metrics          aggregated Prometheus exposition (worker="..." labels)
//	GET  /v1/healthz, readyz  liveness and readiness
//	     /debug/pprof/*       Go runtime profiles (only with -pprof)
//
// A JobSpec may carry "topology" (htree | bus | mesh | torus | flatfly |
// dragonfly); it participates in the content digest, so the same spec on
// two topologies is two distinct cached results. A bad spec gets a 400
// bad_request before admission, so it never queues, never consumes a
// tenant slot and never reaches a worker; cluster.JobSpec.Normalize holds
// the defaults and bounds. Every error response is the typed JSON
// envelope {code, message, retryable}.
//
// With -eventlog the coordinator emits structured JSONL job-lifecycle
// events (job.submit, job.dispatch, job.retry, job.terminal); with
// -flightdump it additionally keeps a flight recorder of recent events
// and snapshots it to the named file whenever a job exhausts its retry
// budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/obs/eventlog"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	ttl := flag.Duration("ttl", 10*time.Second, "worker heartbeat TTL")
	dispatchers := flag.Int("dispatchers", 8, "concurrent dispatch loops")
	maxQueued := flag.Int("max-queued", 1024, "per-tenant queued-job quota")
	maxActive := flag.Int("max-active", 256, "per-tenant active-job quota")
	journalPath := flag.String("journal", "", "append-only JSONL job journal; replayed on startup (empty: in-memory only)")
	maxRetries := flag.Int("max-retries", 64, "per-job dispatch retry budget")
	backoffBase := flag.Duration("backoff-base", 10*time.Millisecond, "first-retry backoff")
	backoffCap := flag.Duration("backoff-cap", 2*time.Second, "retry backoff ceiling")
	seed := flag.Uint64("seed", 0, "seed for deterministic retry jitter")
	maxJobs := flag.Int("max-jobs", 16384, "tracked-job bound; oldest terminal jobs evict beyond it")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive dispatch failures that open a worker's circuit")
	breakerProbe := flag.Duration("breaker-probe", 500*time.Millisecond, "open-circuit probe delay")
	eventLog := flag.String("eventlog", "", "JSONL job-lifecycle event log destination ('-': stderr, empty: off)")
	logLevel := flag.String("loglevel", "info", "event log level: debug, info, warn, error")
	flightDump := flag.String("flightdump", "", "file automatic flight dumps are appended to on retry exhaustion (requires -eventlog)")
	pprofOn := flag.Bool("pprof", false, "mount /debug/pprof on the coordinator mux")
	flag.Parse()

	opts := cluster.CoordinatorOptions{
		TTL:         *ttl,
		Dispatchers: *dispatchers,
		Quota:       cluster.QuotaConfig{MaxQueued: *maxQueued, MaxActive: *maxActive},
		MaxRetries:  *maxRetries,
		BackoffBase: *backoffBase,
		BackoffCap:  *backoffCap,
		Seed:        *seed,
		MaxJobs:     *maxJobs,
		Breaker:     cluster.BreakerConfig{Threshold: *breakerThreshold, Probe: *breakerProbe},
	}
	if *eventLog != "" {
		w := io.Writer(os.Stderr)
		if *eventLog != "-" {
			f, err := os.OpenFile(*eventLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		opts.Log = eventlog.New(w, eventlog.ParseLevel(*logLevel))
		if *flightDump != "" {
			f, err := os.OpenFile(*flightDump, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			opts.FlightW = f
		}
	} else if *flightDump != "" {
		fmt.Fprintln(os.Stderr, "wavepimctl: -flightdump requires -eventlog")
		os.Exit(1)
	}
	var journal *cluster.Journal
	if *journalPath != "" {
		j, recs, err := cluster.OpenJournal(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		journal = j
		opts.Journal = j
		opts.Replay = recs
	}
	coord := cluster.NewCoordinator(opts)
	if journal != nil {
		r := coord.Replay()
		fmt.Fprintf(os.Stderr, "wavepimctl journal %s: %d records, %d restored, %d requeued, %d dropped\n",
			*journalPath, r.Records, r.Restored, r.Requeued, r.Dropped)
	}
	handler := coord.Handler()
	if *pprofOn {
		// The coordinator serves operator traffic; profiles are opt-in so a
		// default deployment exposes no runtime internals.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "wavepimctl listening on %s\n", *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sigCh:
		coord.Close()
		if journal != nil {
			if err := journal.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}
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
