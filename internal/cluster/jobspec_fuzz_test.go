package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/obs/eventlog"
	"wavepim/internal/serve"
)

// FuzzJobSpec sends raw JSON bodies to both spec boundaries: a worker's
// POST /v1/runs and a coordinator's POST /v1/jobs (in front of a real
// worker). Invariants, whatever the body:
//
//  1. Neither process panics, and each answers within the client timeout.
//  2. The status is one of 200, 202, 400, 409, 429, 503.
//  3. Every accepted job (202) reaches a terminal state within a bound.
//
// Valid bodies that describe a costly run are skipped: refine, np or
// steps above the defaults, or any fault injection (its cost grows with
// the fault rates, up to seconds per step). The target checks the
// boundary, not the simulator's speed. The seeds cover every bound
// Normalize enforces.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		`{"equation":"acoustic","steps":1}`,
		`{"equation":"maxwell","steps":1,"topology":"bus","id":"Fuzz-1"}`,
		`{"equation":"elastic-central","steps":1,"np":2,"workers":3,"deadline_ms":60000}`,
		`{"equation":"acoustic","refine":11}`,
		`{"refine":-1}`,
		`{"np":1}`,
		`{"np":9}`,
		`{"steps":-3}`,
		`{"cfl":-1}`,
		`{"faults":"seed=banana"}`,
		`{"recover":"retries=lots"}`,
		`{"topology":"hypercube"}`,
		`{"id":"` + strings.Repeat("a", 300) + `"}`,
		`{"priority":"urgent"}`,
		`{"refine":1e3}`,
		`{"np":"4"}`,
		`not json`,
		``,
	} {
		f.Add(seed)
	}

	worker := serve.NewServer(serve.Options{Workers: 1, QueueCap: 64, TraceCap: 128, Level: eventlog.Info})
	workerTS := httptest.NewServer(worker.Handler())
	f.Cleanup(workerTS.Close)
	f.Cleanup(worker.Drain)
	tc := startCluster(f, 1, clusterOptions{queue: 64})
	client := &http.Client{Timeout: 30 * time.Second}

	f.Fuzz(func(t *testing.T, body string) {
		var spec cluster.JobSpec
		if json.NewDecoder(strings.NewReader(body)).Decode(&spec) == nil {
			if n, err := spec.Normalize(); err == nil && (n.Refine > 1 || n.Np > 4 || n.Steps > 4 || n.Faults != "" || n.Recover != "") {
				t.Skip("costly run")
			}
		}
		for _, ep := range []struct{ submit, poll string }{
			{workerTS.URL + "/v1/runs", workerTS.URL + "/v1/runs/"},
			{tc.coordTS.URL + "/v1/jobs", tc.coordTS.URL + "/v1/jobs/"},
		} {
			resp, err := client.Post(ep.submit, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", ep.submit, err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case 200, 400, 409, 429, 503:
				continue
			case 202:
			default:
				t.Fatalf("POST %s %q: status %d %s", ep.submit, body, resp.StatusCode, b)
			}
			var acc struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(b, &acc); err != nil || acc.ID == "" {
				t.Fatalf("POST %s: 202 without an id: %s", ep.submit, b)
			}
			waitTerminal(t, client, ep.poll+acc.ID, 60*time.Second)
		}
	})
}

// waitTerminal polls a run or job view until its status is done or
// failed.
func waitTerminal(t *testing.T, client *http.Client, url string, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := client.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		var v struct {
			Status string `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
		}
		if v.Status == "done" || v.Status == "failed" {
			return
		}
	}
	t.Fatalf("%s never reached a terminal state", url)
}
