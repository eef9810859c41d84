// Command wavebench is the repository benchmark. One invocation runs one
// named workload against the Wave-PIM reproduction, checks its outputs,
// and reports its metrics: every end-to-end metric with -trace 0, every
// per-layer metric with -trace 1. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}; a readable summary
// goes to standard error, and DIR/results.json keeps the same result with
// the host it was measured on.
//
//	bash bench/run.sh --workload acoustic_functional --seed 1 --seconds 20 --trace 0
//	wavebench -compare A/results.json... -- B/results.json...
//
// The benchmark measures every layer from outside: it times calls into
// each package's public functions and each daemon's HTTP endpoints, and
// reads the Go runtime's own counters and CPU profiles. bench/README.md
// lists the workloads, the metrics, and which end-to-end metric each
// per-layer metric is expected to move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics BENCHMARK.json declares, in
// report order. An operation is the workload's unit of work: one
// wavepim.Run cell of the paper sweep, one functional time step, or one
// served job from its due time to the poll that sees it done.
// completed_pct is the share of attempted operations that did not fail,
// refuse or time out: the complement of the failure ratio, which reads 0
// on a good run. The tail operation time is a per-layer metric, because
// its run-to-run spread exceeds any bound the benchmark may set.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"rss_mb", "MB"},
	{"completed_pct", "%"},
}

// profileLayers are the layers CPU-profile samples are attributed to:
// the internal package of a sample's innermost wavepim/internal frame
// (subpackages fold into their parent, pim/ is dropped), "other" for the
// remaining internal packages, and "runtime" for samples with no
// internal frame at all.
var profileLayers = []string{
	"dg", "wavepim", "sim", "xbar", "chip", "intercon", "nor",
	"serve", "cluster", "obs", "other", "runtime",
}

// cumMarkers are the cumulative CPU shares: a sample counts when any of
// its frames contains one of the listed function names.
var cumMarkers = []struct {
	metric string
	frames []string
}{
	{"sim.exec_blocks_cum", []string{"sim.(*Engine).ExecBlocks"}},
	{"sim.exec_transfers_cum", []string{"sim.(*Engine).ExecTransfers"}},
	{"runtime.gc_cpu_share", []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}},
}

// layerMetrics are the per-layer metrics BENCHMARK.json declares. A
// metric that does not apply to a workload reads 0 there.
var layerMetrics = func() []metricDef {
	var ms []metricDef
	for _, l := range profileLayers {
		ms = append(ms, metricDef{l + ".cpu_share", "%"})
	}
	for _, c := range cumMarkers {
		ms = append(ms, metricDef{c.metric, "%"})
	}
	return append(ms,
		metricDef{"op_ms_p90", "ms"},
		metricDef{"sim.instr_per_op", "count"},
		metricDef{"sim.transfers_per_op", "count"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"nor.gate_evals_per_op", "count"},
		metricDef{"nor.add_ns_per_lane_k1", "ns"},
		metricDef{"nor.add_ns_per_lane_k8", "ns"},
		metricDef{"nor.mul_ns_per_lane_k1", "ns"},
		metricDef{"nor.mul_ns_per_lane_k8", "ns"},
		metricDef{"dg.setup_ms", "ms"},
		metricDef{"wavepim.session_cold_ms", "ms"},
		metricDef{"wavepim.load_ms", "ms"},
		metricDef{"wavepim.first_step_ms", "ms"},
		metricDef{"wavepim.readstate_ms", "ms"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.alloc_mb_per_op", "MB"},
		metricDef{"serve.inproc_job_ms_p50", "ms"},
		metricDef{"serve.direct_job_ms_p50", "ms"},
		metricDef{"serve.cpu_ms_per_job", "ms"},
		metricDef{"cluster.submit_ms_p50", "ms"},
		metricDef{"cluster.poll_ms_p50", "ms"},
		metricDef{"cluster.overhead_ms_p50", "ms"},
		metricDef{"cluster.cpu_ms_per_job", "ms"},
		metricDef{"cluster.stage_queue_ms_p50", "ms"},
		metricDef{"cluster.stage_dispatch_ms_p50", "ms"},
		metricDef{"cluster.stage_exec_ms_p50", "ms"},
		metricDef{"cluster.job_ms_p50_r25", "ms"},
		metricDef{"cluster.job_ms_p95_r25", "ms"},
		metricDef{"cluster.job_ms_p50_r50", "ms"},
		metricDef{"cluster.job_ms_p95_r50", "ms"},
		metricDef{"cluster.job_ms_p50_r75", "ms"},
		metricDef{"cluster.job_ms_p95_r75", "ms"},
		metricDef{"cluster.max_rate_jobs_per_s", "1/s"},
		metricDef{"loadgen.late_ms_max", "ms"},
		metricDef{"trace.overhead_pct", "%"},
		metricDef{"trace.reconcile_err_pct", "%"},
	)
}()

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(*env) (*outcome, error)
	// setup performs one cold set-up in this process, for -setup-child;
	// nil when the workload's set-up already starts fresh processes.
	setup func(seed uint64) (setupSample, error)
}

var workloads = []workload{
	{name: "paper_sweep", run: runPaperSweep, setup: sweepSetup},
	acousticFunctional.workload(),
	elasticFunctional.workload(),
	norFunctional.workload(),
	{name: "serve_openloop", run: runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	ops               []float64          // measured operation times, ms
	problems          []string           // failed correctness checks
	e2e               map[string]float64 // end-to-end metrics by name
	layer             map[string]float64 // per-layer metrics by name
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check; nil passes.
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// setupSample is one cold set-up: its total seconds and the milliseconds
// of each public call it made, keyed by per-layer metric name.
type setupSample struct {
	Seconds float64            `json:"seconds"`
	PartsMs map[string]float64 `json:"parts_ms"`
}

// env is one benchmark invocation's settings and shared state.
type env struct {
	workload  string
	seed      uint64
	window    time.Duration // measured time
	traced    bool
	outDir    string
	binDir    string // holds wavepimd and wavepimctl
	setupRuns int    // cold set-ups whose median is setup_s
	golden    goldenSet
	tr        *tracer // nil in an untraced run
	log       io.Writer
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is DIR/results.json: one run's result with what produced it.
type record struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Seconds  float64   `json:"seconds"`
	Trace    bool      `json:"trace"`
	Host     hostStamp `json:"host"`
	Problems []string  `json:"problems,omitempty"`
	Result   result    `json:"result"`
	OpsMs    []float64 `json:"op_ms"` // every measured operation, in order
}

// hostStamp identifies the machine and code a result was measured on.
type hostStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wavebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "measured time in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := fs.String("out", "", "directory for results.json, traces and profiles (default .bench_build/out/<workload>-seed<N>[-trace])")
	bin := fs.String("bin", "", "directory holding wavepimd and wavepimctl (default: this binary's directory)")
	golden := fs.String("golden", filepath.Join("bench", "testdata", "golden.json"), "golden simulated outputs")
	update := fs.Bool("update-golden", false, "record this workload's simulated outputs as its golden instead of checking them")
	compare := fs.Bool("compare", false, "compare two sets of results.json files given as A... -- B...")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	child := fs.Bool("setup-child", false, "perform one cold set-up of the workload and print it as JSON (used by the benchmark itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if err := runCompare(*spec, fs.Args(), stdout); err != nil {
			fmt.Fprintf(stderr, "wavebench: %v\n", err)
			return 2
		}
		return 0
	}
	if raceEnabled {
		fmt.Fprintln(stderr, "wavebench: refusing to measure a -race build: the race detector slows every layer by a different factor")
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "wavebench: unknown workload %q (one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "wavebench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "wavebench: -seconds must be positive, got %g\n", *seconds)
		return 2
	}
	if *child {
		return setupChild(w, *seed, stdout, stderr)
	}

	e := &env{
		workload:  w.name,
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		traced:    *trace == 1,
		outDir:    *out,
		binDir:    *bin,
		setupRuns: 5,
		golden:    goldenSet{path: *golden, update: *update},
		log:       stderr,
	}
	if e.outDir == "" {
		suffix := ""
		if e.traced {
			suffix = "-trace"
		}
		e.outDir = filepath.Join(".bench_build", "out", fmt.Sprintf("%s-seed%d%s", w.name, e.seed, suffix))
	}
	if e.binDir == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "wavebench: %v\n", err)
			return 1
		}
		e.binDir = filepath.Dir(exe)
	}
	if e.traced {
		// Per-layer set-up times come from the one in-process set-up.
		e.setupRuns = 1
		e.tr = newTracer()
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "wavebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "wavebench: %s seed=%d seconds=%g trace=%d\n", w.name, e.seed, *seconds, *trace)
	o, err := w.run(e)
	if err != nil {
		fmt.Fprintf(stderr, "wavebench: %s: %v\n", w.name, err)
		return 1
	}
	return e.report(o, *seconds, stdout)
}

// report prints the run's metrics, writes results.json, and prints the
// result line. A failed correctness check exits non-zero after printing.
func (e *env) report(o *outcome, seconds float64, stdout io.Writer) int {
	if o.attempted > 0 {
		o.e2e["completed_pct"] = 100 * float64(o.attempted-o.failed) / float64(o.attempted)
	}
	defs, vals := e2eMetrics, o.e2e
	if e.traced {
		defs, vals = layerMetrics, o.layer
	}
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !e.traced {
			o.problems = append(o.problems, "end-to-end metric "+d.name+" was not measured")
			res.Correct = false
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(e.log, "  %-30s %14.6g %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		o.problems = append(o.problems, "no operation was attempted")
		res.Correct = false
	}
	for _, p := range o.problems {
		fmt.Fprintf(e.log, "wavebench: check failed: %s\n", p)
	}
	rec := record{Workload: e.workload, Seed: e.seed, Seconds: seconds, Trace: e.traced,
		Host: stampHost(), Problems: o.problems, Result: res, OpsMs: o.ops}
	if err := writeJSON(filepath.Join(e.outDir, "results.json"), rec); err != nil {
		fmt.Fprintf(e.log, "wavebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(e.log, "wavebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupChild performs one cold set-up and prints it as JSON: the
// benchmark re-executes itself this way so every set-up it times starts
// in a fresh process with an empty plan cache.
func setupChild(w workload, seed uint64, stdout, stderr io.Writer) int {
	if w.setup == nil {
		fmt.Fprintf(stderr, "wavebench: %s has no in-process set-up\n", w.name)
		return 2
	}
	s, err := w.setup(seed)
	if err == nil {
		err = json.NewEncoder(stdout).Encode(s)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wavebench: %s set-up: %v\n", w.name, err)
		return 1
	}
	return 0
}

// childSetups runs n cold set-ups of the current workload, each in a
// fresh child process, one after another.
func (e *env) childSetups(n int) ([]setupSample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []setupSample
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", e.workload, "-seed", fmt.Sprint(e.seed))
		cmd.Stderr = e.log
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		var s setupSample
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("set-up child output: %w", err)
		}
		out = append(out, s)
	}
	return out, nil
}

// recordSetup reports setup_s as the median of the samples' totals and
// each set-up part as the median of its milliseconds.
func (o *outcome) recordSetup(samples []setupSample) {
	var tot []float64
	parts := map[string][]float64{}
	for _, s := range samples {
		tot = append(tot, s.Seconds)
		for k, v := range s.PartsMs {
			parts[k] = append(parts[k], v)
		}
	}
	o.e2e["setup_s"] = median(tot)
	for k, vs := range parts {
		o.layer[k] = median(vs)
	}
}

// recordOps reports the operation latency percentiles and prints the
// sample count with the tail percentile ten samples support.
func (e *env) recordOps(o *outcome, ms []float64) {
	o.ops = ms
	o.e2e["op_ms_p50"] = percentile(ms, 50)
	o.layer["op_ms_p90"] = percentile(ms, 90)
	tail := tailPercentile(len(ms))
	fmt.Fprintf(e.log, "  operations: n=%d p50=%.4g ms p90=%.4g ms; p%g=%.4g ms is the highest percentile with ten samples beyond it\n",
		len(ms), percentile(ms, 50), percentile(ms, 90), tail, percentile(ms, tail))
}

// stampHost describes the machine and the code being measured. The
// commit is read only when the working directory is itself a git
// checkout; git is kept from searching parent directories.
func stampHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "none",
	}
	if _, err := os.Stat(".git"); err != nil {
		return h
	}
	wd, err := os.Getwd()
	if err != nil {
		return h
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd),
			"GIT_CONFIG_NOSYSTEM=1", "GIT_CONFIG_GLOBAL="+os.DevNull)
		b, err := cmd.Output()
		return strings.TrimSpace(string(b)), err
	}
	commit, err := git("rev-parse", "HEAD")
	if err != nil {
		h.Commit = "unknown"
		return h
	}
	h.Commit = commit
	status, err := git("status", "--porcelain", "--untracked-files=no")
	h.Dirty = err != nil || status != ""
	return h
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
