package cluster_test

// Cluster load guard: push >=200 concurrent jobs through a 3-worker
// cluster and demand zero errors. Gated behind CLUSTER_LOAD=1 so plain
// `go test` stays fast; scripts/cluster_load_guard.sh runs it under
// -race in CI and prints throughput and latency percentiles. The frozen
// BENCH_pr7.json holds the numbers recorded when the guard was added.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/cluster"
)

// loadResult is the guard's JSON output. Field order is fixed by the
// struct so recorded files diff cleanly.
type loadResult struct {
	Workers    int     `json:"workers"`
	Jobs       int     `json:"jobs"`
	Errors     int     `json:"errors"`
	WallSec    float64 `json:"wall_seconds"`
	Throughput float64 `json:"throughput_jobs_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`

	// Decomp breaks the end-to-end latency into the coordinator's traced
	// stages, aggregated over every completed job's JobView.Stages — the
	// same decomposition /v1/metrics exports as histograms.
	Decomp struct {
		Queue    stageStats `json:"queue"`
		Dispatch stageStats `json:"dispatch"`
		Exec     stageStats `json:"exec"`
		E2E      stageStats `json:"e2e"`
	} `json:"latency_decomposition"`
}

type stageStats struct {
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// stageDist summarizes one stage's per-job milliseconds.
func stageDist(vals []float64) stageStats {
	if len(vals) == 0 {
		return stageStats{}
	}
	sort.Float64s(vals)
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	pct := func(p float64) float64 { return vals[int(p*float64(len(vals)-1))] }
	return stageStats{MeanMs: sum / float64(len(vals)), P50Ms: pct(0.50), P99Ms: pct(0.99)}
}

func TestClusterLoadGuard(t *testing.T) {
	if os.Getenv("CLUSTER_LOAD") == "" {
		t.Skip("set CLUSTER_LOAD=1 to run the cluster load guard")
	}
	jobs := 200
	if v := os.Getenv("CLUSTER_LOAD_JOBS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("CLUSTER_LOAD_JOBS=%q", v)
		}
		jobs = n
	}

	const workers = 3
	tc := startCluster(t, workers, clusterOptions{
		workers: 2, queue: 128, dispatchers: 32,
		pollInterval: 2 * time.Millisecond,
	})

	// All jobs in flight at once: one goroutine per job submits, then
	// polls its job to "done" and records the end-to-end latency. Specs
	// are content-distinct (per-job CFL) so every job really executes.
	var (
		mu        sync.Mutex
		latencies []float64
		errs      []string
	)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("load-%04d", i)
			body := fmt.Sprintf(`{"equation":"acoustic","steps":2,"cfl":%g,"id":%q}`,
				0.2+1e-6*float64(i), id)
			t0 := time.Now()
			resp, err := http.Post(tc.coordTS.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("%s: submit: %v", id, err))
				mu.Unlock()
				return
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code != http.StatusAccepted {
				mu.Lock()
				errs = append(errs, fmt.Sprintf("%s: submit status %d", id, code))
				mu.Unlock()
				return
			}
			deadline := time.Now().Add(5 * time.Minute)
			for {
				if time.Now().After(deadline) {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s: timed out", id))
					mu.Unlock()
					return
				}
				resp, err := http.Get(tc.coordTS.URL + "/v1/jobs/" + id)
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s: poll: %v", id, err))
					mu.Unlock()
					return
				}
				var v struct {
					Status string `json:"status"`
					Error  string `json:"error"`
				}
				decErr := json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				if decErr != nil {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s: decode: %v", id, decErr))
					mu.Unlock()
					return
				}
				if v.Status == "done" {
					mu.Lock()
					latencies = append(latencies, time.Since(t0).Seconds()*1e3)
					mu.Unlock()
					return
				}
				if v.Status == "failed" {
					mu.Lock()
					errs = append(errs, fmt.Sprintf("%s: failed: %s", id, v.Error))
					mu.Unlock()
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	if len(errs) > 0 {
		max := len(errs)
		if max > 10 {
			max = 10
		}
		t.Fatalf("%d/%d jobs errored; first %d:\n%s",
			len(errs), jobs, max, strings.Join(errs[:max], "\n"))
	}
	if len(latencies) != jobs {
		t.Fatalf("only %d/%d jobs completed", len(latencies), jobs)
	}

	sort.Float64s(latencies)
	pct := func(p float64) float64 {
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	res := loadResult{
		Workers:    workers,
		Jobs:       jobs,
		Errors:     0,
		WallSec:    wall,
		Throughput: float64(jobs) / wall,
		P50Ms:      pct(0.50),
		P99Ms:      pct(0.99),
	}

	// The coordinator's own stage decomposition for the same jobs.
	_, table := tc.get(t, "/v1/jobs")
	var views []cluster.JobView
	if err := json.Unmarshal([]byte(table), &views); err != nil {
		t.Fatalf("job table: %v", err)
	}
	var qMs, dMs, eMs, e2eMs []float64
	for _, v := range views {
		if v.Status != "done" {
			continue
		}
		qMs = append(qMs, v.Stages.QueueSec*1e3)
		dMs = append(dMs, v.Stages.DispatchSec*1e3)
		eMs = append(eMs, v.Stages.ExecSec*1e3)
		e2eMs = append(e2eMs, v.Stages.E2ESec*1e3)
	}
	if len(e2eMs) != jobs {
		t.Fatalf("job table has %d done jobs with stages, want %d", len(e2eMs), jobs)
	}
	res.Decomp.Queue = stageDist(qMs)
	res.Decomp.Dispatch = stageDist(dMs)
	res.Decomp.Exec = stageDist(eMs)
	res.Decomp.E2E = stageDist(e2eMs)

	t.Logf("cluster load: %d jobs, %d workers, %.2fs wall, %.1f jobs/s, p50 %.1fms, p99 %.1fms",
		res.Jobs, res.Workers, res.WallSec, res.Throughput, res.P50Ms, res.P99Ms)
	t.Logf("stage p50 ms: queue %.1f, dispatch %.1f, exec %.1f, e2e %.1f",
		res.Decomp.Queue.P50Ms, res.Decomp.Dispatch.P50Ms, res.Decomp.Exec.P50Ms, res.Decomp.E2E.P50Ms)

	if out := os.Getenv("CLUSTER_LOAD_OUT"); out != "" {
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
