package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// asCommand makes the test binary behave as wavebench, so each run (and
// each set-up it re-executes) starts in a fresh process with an empty
// plan cache, as it does in use.
const asCommand = "WAVEBENCH_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

const goldenPath = "../testdata/golden.json"

// runCmd runs wavebench in a child process and returns its exit code and
// the result line it printed, if any.
func runCmd(t *testing.T, args ...string) (int, *result) {
	t.Helper()
	var out, errs strings.Builder
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asCommand+"=1")
	cmd.Stdout, cmd.Stderr = &out, &errs
	code := 0
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	t.Logf("wavebench %s: exit %d\n%s", strings.Join(args, " "), code, errs.String())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[len(lines)-1] == "" {
		return code, nil
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	return code, &r
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, wavebench runs %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json has %d %s metrics, wavebench reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), wavebench %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end-to-end", spec.EndToEnd, e2eMetrics)
	same("per-layer", spec.PerLayer, layerMetrics)
}

func TestRaceBuildRefusesToMeasure(t *testing.T) {
	if !raceEnabled {
		t.Skip("only a -race build refuses")
	}
	var out, errs strings.Builder
	if code := run([]string{"-workload", "paper_sweep"}, &out, &errs); code == 0 || out.Len() != 0 {
		t.Errorf("a -race build measured: exit %d, output %q", code, out.String())
	}
}

func TestGoldenMismatchExitsNonZero(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build refuses to measure")
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var entries map[string]goldenEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	g := entries["elastic_functional"]
	g.EnergyJ = math.Nextafter(g.EnergyJ, 1) // one bit off
	entries["elastic_functional"] = g
	bad := filepath.Join(t.TempDir(), "golden.json")
	if err := writeJSON(bad, entries); err != nil {
		t.Fatal(err)
	}
	code, r := runCmd(t, "-workload", "elastic_functional", "-seconds", "0.05", "-golden", bad, "-out", t.TempDir())
	if code == 0 {
		t.Error("a golden mismatch exited 0")
	}
	if r == nil || r.Correct {
		t.Errorf("a golden mismatch printed %+v, want correct=false", r)
	}
}

// TestSmokeEveryWorkload runs each workload for a few operations, bare
// and traced, against the committed golden file.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs every workload, which a -race build refuses")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "wavepim/cmd/wavepimd", "wavepim/cmd/wavepimctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, out)
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				code, r := runCmd(t, "-workload", w, "-seconds", "0.1", "-trace", trace,
					"-bin", bin, "-golden", goldenPath, "-out", t.TempDir())
				if code != 0 || r == nil || !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("exit %d, result %+v", code, r)
				}
				want := e2eMetrics
				if trace == "1" {
					want = layerMetrics
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
				}
			})
		}
	}
}
