package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		name        string
		lowerBetter bool
		b           []float64
		want        string
	}{
		{"same", true, []float64{100, 101, 99, 100, 101, 99}, "within"},
		{"slower past bound", true, []float64{120, 121, 119, 120, 122, 118}, "worse"},
		{"faster past bound", true, []float64{80, 81, 79, 80, 82, 78}, "better"},
		{"higher-is-better drop", false, []float64{80, 81, 79, 80, 82, 78}, "worse"},
		{"noisy", true, []float64{60, 140, 100, 70, 130, 100}, "unresolved"},
		{"noisy but every run faster", true, []float64{50, 70, 60, 52, 68, 55}, "better"},
	} {
		if got := verdict(0.1, c.lowerBetter, base, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, op, setup float64, trace bool) string {
		p := filepath.Join(dir, name)
		rec := record{Workload: "w", Trace: trace, Result: result{Metrics: map[string]metric{
			"op_ms_p50": {op, "ms"}, "setup_s": {setup, "s"}}}}
		if err := writeJSON(p, rec); err != nil {
			t.Fatal(err)
		}
		return p
	}
	args := []string{
		write("a1.json", 10, 1.0, false), write("a2.json", 10.1, 1.0, false), write("a3.json", 9.9, 1.0, false),
		write("at.json", 1000, 1000, true), // traced: ignored
		"--",
		write("b1.json", 13, 1.0, false), write("b2.json", 13.1, 1.01, false), write("b3.json", 12.9, 0.99, false),
	}
	var out strings.Builder
	if err := runCompare(specPath, args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want a header and 2 verdict lines, got:\n%s", out.String())
	}
	if !strings.Contains(lines[1], "op_ms_p50") || !strings.HasSuffix(lines[1], "worse") {
		t.Errorf("op_ms_p50 line: %s", lines[1])
	}
	if !strings.Contains(lines[2], "setup_s") || !strings.HasSuffix(lines[2], "within") {
		t.Errorf("setup_s line: %s", lines[2])
	}
	if err := runCompare(specPath, args[:3], &out); err == nil {
		t.Error("-compare without -- succeeded")
	}
}
