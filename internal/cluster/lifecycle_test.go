package cluster_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/cluster/chaos"
	"wavepim/internal/obs/eventlog"
)

// legalNext is the job lifecycle as the event log sees it: the lines
// that may follow each line of one job ("" is the job's start).
var legalNext = map[string][]string{
	"":             {"job.submit"},
	"job.submit":   {"job.dispatch", "job.retry", "job.terminal"},
	"job.dispatch": {"job.retry", "job.terminal"},
	"job.retry":    {"job.dispatch", "job.retry", "job.terminal"},
	"job.terminal": nil,
}

// TestLifecycleInvariants: across the seeded chaos schedules, plus a
// content-cache hit and a deadline expiry in each, every job's records
// tell one story. Per job, the event log holds exactly one job.submit
// first and one job.terminal last with only legal steps between; the
// journal holds one submit and at most one terminal; and the terminal
// counters of wavepimctl_jobs_total add up to the job.terminal lines.
func TestLifecycleInvariants(t *testing.T) {
	for _, sc := range []chaosScenario{
		{name: "drop", cfg: chaos.Config{Seed: 11, DropProb: 0.4, Only: "POST /v1/runs"}},
		{name: "delay_drop", cfg: chaos.Config{Seed: 12, DropProb: 0.3, DelayProb: 0.5,
			Delay: time.Millisecond, Only: "POST /v1/runs"}},
		{name: "flap_503", cfg: chaos.Config{Seed: 13, ErrProb: 0.5, Only: "POST /v1/runs"}},
		{name: "truncate", cfg: chaos.Config{Seed: 14, TruncateProb: 0.6, DropProb: 0.2,
			Only: "POST /v1/runs"}},
		{name: "partition", cfg: chaos.Config{Seed: 15, Only: "POST /v1/runs"},
			maxRetries: 4, partition: true},
	} {
		t.Run(sc.name, func(t *testing.T) {
			var logBuf syncBuf
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			jr, _, err := cluster.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			tr := chaos.New(sc.cfg)
			tc := startCluster(t, 1, clusterOptions{
				workers: 2, dispatchers: 4,
				client:     tr.Client(30 * time.Second),
				seed:       sc.cfg.Seed,
				maxRetries: sc.maxRetries,
				backoffCap: 50 * time.Millisecond,
				breaker:    cluster.BreakerConfig{Threshold: 3, Probe: 20 * time.Millisecond},
				grace:      time.Millisecond,
				journal:    jr,
				log:        eventlog.New(&logBuf, eventlog.Info),
			})
			if sc.partition {
				tr.Partition(strings.TrimPrefix(tc.workers["w1"].ts.URL, "http://"))
			}
			var ids []string
			for i := 0; i < 6; i++ {
				id := fmt.Sprintf("chaos-%d", i)
				ids = append(ids, id)
				if code, body := tc.submit(t, fmt.Sprintf(`{"equation":"acoustic","steps":%d,"id":%q}`, 2+i, id)); code != http.StatusAccepted {
					t.Fatalf("submit %s: %d %s", id, code, body)
				}
			}
			for _, id := range ids {
				tc.waitJob(t, id, 60*time.Second)
			}
			// chaos-0's spec under a new id: a cache hit once chaos-0 is
			// done. Then a deadline no dispatch can meet.
			tc.submit(t, `{"equation":"acoustic","steps":2,"id":"hit"}`)
			tc.submit(t, `{"equation":"acoustic","steps":30,"deadline_ms":1,"id":"late"}`)
			ids = append(ids, "hit", "late")
			if status, body := tc.waitJob(t, "late", 60*time.Second); status != "failed" {
				t.Fatalf("late job: %s %s", status, body)
			}
			if status, _ := tc.waitJob(t, "hit", 60*time.Second); !sc.partition && status != "done" {
				t.Fatalf("cache hit: %s", status)
			}
			if !sc.partition {
				if _, table := tc.get(t, "/v1/jobs"); !strings.Contains(table, `"id":"hit","status":"done","priority":"normal","worker":"w1","cached":true`) {
					t.Fatalf("hit is not a cache hit: %s", table)
				}
			}
			_, metrics := tc.get(t, "/v1/metrics")
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}

			// The event log, per job.
			lines := map[string][]string{}
			terminals := 0
			scan := bufio.NewScanner(strings.NewReader(logBuf.String()))
			for scan.Scan() {
				var l struct{ Event, Job string }
				if err := json.Unmarshal(scan.Bytes(), &l); err != nil {
					t.Fatalf("event log line %q: %v", scan.Text(), err)
				}
				if strings.HasPrefix(l.Event, "job.") {
					lines[l.Job] = append(lines[l.Job], l.Event)
				}
				if l.Event == "job.terminal" {
					terminals++
				}
			}
			if len(lines) != len(ids) {
				t.Fatalf("event log covers %d jobs, want %d:\n%s", len(lines), len(ids), logBuf.String())
			}
			for _, id := range ids {
				prev := ""
				for _, ev := range lines[id] {
					legal := false
					for _, next := range legalNext[prev] {
						legal = legal || next == ev
					}
					if !legal {
						t.Fatalf("job %s: %s after %q in %v", id, ev, prev, lines[id])
					}
					prev = ev
				}
				if prev != "job.terminal" {
					t.Fatalf("job %s ends on %q: %v", id, prev, lines[id])
				}
			}

			// The journal, per job.
			j2, recs, err := cluster.OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j2.Close()
			counts := map[string]map[string]int{}
			for _, r := range recs {
				if counts[r.ID] == nil {
					counts[r.ID] = map[string]int{}
				}
				counts[r.ID][r.T]++
			}
			for _, id := range ids {
				if n := counts[id][cluster.JournalSubmit]; n != 1 {
					t.Fatalf("job %s: %d submit records", id, n)
				}
				if n := counts[id][cluster.JournalTerminal]; n > 1 {
					t.Fatalf("job %s: %d terminal records", id, n)
				}
			}

			// The terminal counters.
			sum := 0
			for _, st := range []string{"done", "failed", "cached"} {
				prefix := fmt.Sprintf(`wavepimctl_jobs_total{status=%q} `, st)
				for _, line := range strings.Split(metrics, "\n") {
					if v, ok := strings.CutPrefix(line, prefix); ok {
						n, err := strconv.Atoi(v)
						if err != nil {
							t.Fatalf("metric line %q: %v", line, err)
						}
						sum += n
					}
				}
			}
			if sum != terminals {
				t.Fatalf("wavepimctl_jobs_total done+failed+cached = %d, job.terminal lines = %d", sum, terminals)
			}
		})
	}
}
