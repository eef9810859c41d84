package cluster_test

// The coordinator's job lifecycle pinned to literal values. Every value
// below was captured from the coordinator as it stood before its job
// transitions were routed through one function; the test holds the
// observable lifecycle still across that refactor and any later one. A
// change that moves a value here changed coordinator behaviour, not just
// code. Do not re-capture these values to make a change pass.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/cluster/chaos"
)

func pinFNV(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinWorker is a scripted wavepimd stand-in for the journal-sequence
// run: POST /v1/runs answers per job id (bounce[id] 503s before
// accepting, a negative count bounces forever, reject[id] answers 400),
// every accepted run is done on its first poll, and no run has a trace.
type pinWorker struct {
	mu     sync.Mutex
	bounce map[string]int
	reject map[string]bool
	ts     *httptest.Server
}

func newPinWorker(t *testing.T) *pinWorker {
	t.Helper()
	pw := &pinWorker{bounce: map[string]int{}, reject: map[string]bool{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, req *http.Request) {
		var spec cluster.JobSpec
		json.NewDecoder(req.Body).Decode(&spec)
		pw.mu.Lock()
		defer pw.mu.Unlock()
		switch n := pw.bounce[spec.ID]; {
		case pw.reject[spec.ID]:
			http.Error(w, "bad spec", http.StatusBadRequest)
		case n != 0:
			pw.bounce[spec.ID] = n - 1
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			json.NewEncoder(w).Encode(map[string]string{"id": spec.ID})
		}
	})
	mux.HandleFunc("GET /v1/runs/{id}", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(map[string]string{"id": req.PathValue("id"), "status": "done"})
	})
	pw.ts = httptest.NewServer(mux)
	t.Cleanup(pw.ts.Close)
	return pw
}

// pinWaitTerminal polls the coordinator's table until the job is
// terminal.
func pinWaitTerminal(t *testing.T, c *cluster.Coordinator, id string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		for _, v := range c.Jobs() {
			if v.ID == id && (v.Status == "done" || v.Status == "failed") {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never terminal", id)
}

// journalSequence runs one job of each lifecycle shape, strictly one
// after another on a single dispatcher, and returns the journal as
// "t id worker status cached" lines. worker is the accepting worker of a
// dispatch record; terminal records contribute their status and cached
// flag (their report, trace and other payload are not part of the
// sequence).
func journalSequence(t *testing.T) []string {
	t.Helper()
	pw := newPinWorker(t)
	pw.bounce["bounce-1"] = 2
	pw.bounce["exhaust-1"] = -1
	pw.reject["reject-1"] = true

	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jr, _, err := cluster.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Dispatchers: 1, PollInterval: time.Millisecond, TTL: time.Minute,
		MaxRetries: 3, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond,
		DeadlineGrace: time.Millisecond,
		Breaker:       cluster.BreakerConfig{Threshold: 100},
		Journal:       jr,
	})
	c.Registry().Heartbeat("w1", pw.ts.URL)
	submit := func(spec cluster.JobSpec) {
		t.Helper()
		if _, _, err := c.Submit(spec); err != nil {
			t.Fatalf("submit %s: %v", spec.ID, err)
		}
		pinWaitTerminal(t, c, spec.ID)
	}
	submit(cluster.JobSpec{ID: "bounce-1", Equation: "acoustic", Steps: 2}) // two 503s, then done
	submit(cluster.JobSpec{ID: "hit-1", Equation: "acoustic", Steps: 2})    // content cache hit
	c.Registry().Deregister("w1")                                           // nothing to dispatch to...
	submit(cluster.JobSpec{ID: "late-1", Equation: "acoustic", Steps: 3, DeadlineMS: 1})
	c.Registry().Heartbeat("w1", pw.ts.URL)                                  // ...until the deadline passed
	submit(cluster.JobSpec{ID: "exhaust-1", Equation: "acoustic", Steps: 4}) // 503 until the budget is gone
	submit(cluster.JobSpec{ID: "reject-1", Equation: "acoustic", Steps: 5})  // worker 4xx
	c.Close()
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	_, recs, err := cluster.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]string, len(recs))
	for i, r := range recs {
		worker := ""
		if r.T == cluster.JournalDispatch {
			worker = r.Worker
		}
		seq[i] = fmt.Sprintf("%s %s %s %s %v", r.T, r.ID, worker, r.Status, r.Cached)
	}
	return seq
}

func TestCoordinatorLifecyclePinned(t *testing.T) {
	t.Run("golden_trace", func(t *testing.T) {
		doc, table := goldenTrace(t)
		if got, want := pinFNV(doc), "8044bf49120606b6"; got != want {
			t.Errorf("merged trace fnv64a %s, pinned %s:\n%s", got, want, doc)
		}
		if got, want := pinFNV(table), "e6bfe8cf74d30524"; got != want {
			t.Errorf("job table fnv64a %s, pinned %s:\n%s", got, want, table)
		}
	})

	// Stage-normalised job tables of the seeded chaos scenarios (the
	// schedules of TestChaosSchedulesDeterministic and
	// TestChaosPartitionExhaustsBudget), pinned by FNV-64a.
	for _, c := range []struct {
		sc   chaosScenario
		want string
	}{
		{chaosScenario{name: "drop", cfg: chaos.Config{Seed: 11, DropProb: 0.4, Only: "POST /v1/runs"}}, "8e5e8498c331b2ab"},
		{chaosScenario{name: "delay_drop", cfg: chaos.Config{Seed: 12, DropProb: 0.3, DelayProb: 0.5,
			Delay: time.Millisecond, Only: "POST /v1/runs"}}, "72243f62f948f64e"},
		{chaosScenario{name: "flap_503", cfg: chaos.Config{Seed: 13, ErrProb: 0.5, Only: "POST /v1/runs"}}, "099c96faa5cc5ea0"},
		{chaosScenario{name: "truncate", cfg: chaos.Config{Seed: 14, TruncateProb: 0.6, DropProb: 0.2,
			Only: "POST /v1/runs"}}, "91afaf3d5b78c711"},
		{chaosScenario{name: "partition", cfg: chaos.Config{Seed: 15, Only: "POST /v1/runs"},
			maxRetries: 4, partition: true, wantFailed: true}, "0153f5247ed74337"},
	} {
		c := c
		t.Run("chaos_"+c.sc.name, func(t *testing.T) {
			table, _ := runChaosSchedule(t, c.sc)
			if got := pinFNV(table); got != c.want {
				t.Errorf("job table fnv64a %s, pinned %s:\n%s", got, c.want, table)
			}
		})
	}

	t.Run("journal_sequence", func(t *testing.T) {
		want := []string{
			"submit bounce-1   false",
			"retry bounce-1   false",
			"retry bounce-1   false",
			"dispatch bounce-1 w1  false",
			"terminal bounce-1  done false",
			"submit hit-1   false",
			"terminal hit-1  done true",
			"submit late-1   false",
			"terminal late-1  failed false",
			"submit exhaust-1   false",
			"retry exhaust-1   false",
			"retry exhaust-1   false",
			"retry exhaust-1   false",
			"terminal exhaust-1  failed false",
			"submit reject-1   false",
			"terminal reject-1  failed false",
		}
		got := journalSequence(t)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("journal sequence:\n%s\npinned:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}
