package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"wavepim/internal/cluster"
	"wavepim/internal/dg"
	"wavepim/internal/dg/opcount"
	"wavepim/internal/material"
	"wavepim/internal/mesh"
	"wavepim/internal/wavepim"
)

// loadStep is an open loop of independent users at rate jobs per second,
// offered for share of a measured window.
type loadStep struct{ rate, share float64 }

// serveSteps are the offered loads of a traced run, in order. They find
// the highest rate the cluster sustains; on a 2-CPU host the cluster
// saturates between the second step and the third.
var serveSteps = []loadStep{
	{25, 8.0 / 22},
	{50, 8.0 / 22},
	{75, 6.0 / 22},
}

// serveLoad is the offered load of an untraced run, whose job latencies
// are the end-to-end metrics: the first step, the highest one a 2-CPU
// host sustains, for the whole window. Past that the backlog grows, and
// latency measures how long it has grown more than the code.
var serveLoad = []loadStep{{serveSteps[0].rate, 1}}

const (
	// serveWarmup is offered at the first step's rate before measuring.
	serveWarmup = 2 * time.Second
	// serveClosedJobs is how many jobs each traced closed-loop reference
	// (in process, and straight to one worker) times.
	serveClosedJobs = 20
	// A step's rate is sustained when its 95th percentile job takes at
	// most sustainP95Ms and its last job is done within sustainDrain of
	// the step's end.
	sustainP95Ms = 100
	sustainDrain = time.Second
)

// jobBody is the spec every served job asks for: the JobSpec default
// problem (acoustic, 8 elements of 64 nodes) for 4 steps on the engine's
// default worker pool, with a CFL number that makes each spec distinct,
// so no job is answered from the coordinator's result cache.
func jobBody(id string, cfl float64) []byte {
	return []byte(fmt.Sprintf(`{"id":%q,"equation":"acoustic","steps":4,"cfl":%.12g}`, id, cfl))
}

// stepResult is one offered-load step as the generator saw it.
type stepResult struct {
	rate  float64
	jobs  []jobResult
	drain time.Duration // from the step's end to its last job done
}

// sustained reports whether the step's load was carried: its 95th
// percentile job within sustainP95Ms, every job done, and the last one
// within sustainDrain of the step's end.
func (s stepResult) sustained() bool {
	var lat []float64
	for _, r := range s.jobs {
		if r.err != nil {
			return false
		}
		lat = append(lat, r.latencyMs)
	}
	return percentile(lat, 95) <= sustainP95Ms && s.drain <= sustainDrain
}

// maxSustainedRate is the highest rate of a run of steps, from the
// first, that were all sustained; 0 when the first was not.
func maxSustainedRate(steps []stepResult) float64 {
	var r float64
	for _, s := range steps {
		if !s.sustained() {
			break
		}
		r = s.rate
	}
	return r
}

// runSteps offers every step in turn over its share of d, each on its
// own seeded schedule, and waits for each step's jobs before the next.
// job(k) names the jobs of step k.
func runSteps(g *openLoop, steps []loadStep, d time.Duration, seed uint64, job func(k int) func(i int) (string, []byte)) []stepResult {
	var out []stepResult
	for k, st := range steps {
		sd := time.Duration(st.share * float64(d))
		start := time.Now()
		rs := g.run(arrivals(seed+uint64(k), jobCount(st.rate, sd), sd), job(k))
		out = append(out, stepResult{rate: st.rate, jobs: rs, drain: max(0, time.Since(start)-sd)})
	}
	return out
}

// jobCount is how many jobs rate jobs per second offer over d, at least one.
func jobCount(rate float64, d time.Duration) int {
	return max(1, int(math.Round(rate*d.Seconds())))
}

// daemon is one started wavepimd or wavepimctl process.
type daemon struct {
	name   string
	url    string
	cmd    *exec.Cmd
	exited chan struct{} // closed once the process has been waited for
	err    error         // the wait's result, valid after exited

	cpuMs float64 // from the process's rusage, after stop
}

// startDaemon starts bin on a free loopback port; its logs are dropped.
func startDaemon(bin, label string, args ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{name: label, url: "http://" + addr, cmd: cmd, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// waitReady polls the daemon's readiness endpoint until it answers 200.
func (d *daemon) waitReady(c *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if resp, err := c.Get(d.url + "/v1/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.exited:
			return fmt.Errorf("%s exited before it was ready: %v", d.name, d.err)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after 10s", d.name)
		}
	}
}

// stop sends SIGTERM (a graceful drain), waits for the process to end,
// killing it if it takes over 15 s, and records its CPU time.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM) // fails only if the process is already gone
		select {
		case <-d.exited:
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
			return fmt.Errorf("%s did not stop within 15s of SIGTERM", d.name)
		}
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.cpuMs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
	}
	if d.err != nil {
		return fmt.Errorf("%s: %w", d.name, d.err)
	}
	return nil
}

// localCluster is one wavepimctl coordinator (with /debug/pprof mounted)
// and two single-slot wavepimd workers registered with it, on loopback.
type localCluster struct {
	ctl     *daemon
	workers []*daemon
}

// daemons lists the coordinator first, then the workers.
func (c *localCluster) daemons() []*daemon { return append([]*daemon{c.ctl}, c.workers...) }

// startCluster starts the coordinator, then both workers, and returns
// once every daemon is ready and both workers are registered.
func startCluster(binDir string, ctl *http.Client) (*localCluster, error) {
	c := &localCluster{}
	fail := func(err error) (*localCluster, error) {
		c.stop()
		return nil, err
	}
	var err error
	if c.ctl, err = startDaemon(filepath.Join(binDir, "wavepimctl"), "wavepimctl", "-pprof"); err != nil {
		return fail(err)
	}
	if err := c.ctl.waitReady(ctl); err != nil {
		return fail(err)
	}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("w%d", i)
		w, err := startDaemon(filepath.Join(binDir, "wavepimd"), "wavepimd "+name,
			"-workers", "1", "-coordinator", c.ctl.url, "-name", name)
		if err != nil {
			return fail(err)
		}
		c.workers = append(c.workers, w)
	}
	for _, w := range c.workers {
		if err := w.waitReady(ctl); err != nil {
			return fail(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ws []json.RawMessage
		if err := getJSON(ctl, c.ctl.url+"/v1/workers", &ws); err == nil && len(ws) == len(c.workers) {
			return c, nil
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("workers not registered after 10s"))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop stops the workers (which deregister and drain) and then the
// coordinator, and returns the first error. It also stops a cluster whose
// start failed part way.
func (c *localCluster) stop() error {
	var first error
	for _, d := range append(append([]*daemon(nil), c.workers...), c.ctl) {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runServe drives the cluster path end to end: jobs go to the
// coordinator, which dispatches them to the workers, on a seeded open
// loop: serveLoad in an untraced run, serveSteps in each half of a traced
// one. One operation is one job, from its
// due time to the first poll that sees it done. A traced run also times
// the same job in process and straight against one worker, and profiles
// all three daemons.
func runServe(e *env) (*outcome, error) {
	o := newOutcome()
	ctl := &http.Client{Timeout: 30 * time.Second}
	conns := runtime.NumCPU()
	var (
		c       *localCluster
		samples []setupSample
	)
	defer func() {
		if c != nil {
			c.stop()
		}
	}()
	// Set-up: daemons spawned to the first job done, each time on a fresh
	// cluster; the last one is measured.
	for i := 0; i < e.setupRuns; i++ {
		if c != nil {
			if err := c.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if c, err = startCluster(e.binDir, ctl); err != nil {
			return nil, err
		}
		g := newOpenLoop(c.ctl.url, "/v1/jobs", conns)
		r := g.run([]time.Duration{0}, func(int) (string, []byte) { return "setup", jobBody("setup", 0.3) })
		g.close()
		if r[0].err != nil {
			return nil, fmt.Errorf("set-up job: %w", r[0].err)
		}
		samples = append(samples, setupSample{Seconds: time.Since(start).Seconds()})
	}
	o.recordSetup(samples)

	// Each phase's jobs get their own id prefix and CFL numbers drawn
	// from one low-discrepancy sequence, so no two specs are equal.
	u0 := rand.New(rand.NewPCG(e.seed, 4)).Float64()
	jobs := func(prefix string, phase int) func(i int) (string, []byte) {
		return func(i int) (string, []byte) {
			id := fmt.Sprintf("%s%d-%05d", prefix, phase, i)
			_, frac := math.Modf(u0 + float64(phase*100000+i)*0.6180339887498949)
			return id, jobBody(id, 0.2+0.1*frac)
		}
	}
	g := newOpenLoop(c.ctl.url, "/v1/jobs", conns)
	defer g.close()
	served := 1 // the set-up job
	var bad []error
	collect := func(rs []jobResult) (lat []float64, failed int) {
		served += len(rs)
		for _, r := range rs {
			if r.err != nil {
				bad = append(bad, r.err)
				failed++
				continue
			}
			lat = append(lat, r.latencyMs)
		}
		return lat, failed
	}
	// collectSteps collects every step's jobs in order.
	collectSteps := func(steps []stepResult) (rs []jobResult, lat []float64, failed int) {
		for _, s := range steps {
			l, f := collect(s.jobs)
			rs, lat, failed = append(rs, s.jobs...), append(lat, l...), failed+f
		}
		return rs, lat, failed
	}

	collect(g.run(arrivals(e.seed^0x5eed, jobCount(serveSteps[0].rate, serveWarmup), serveWarmup), jobs("w", 0)))
	var (
		measuredRs, tracedRs []jobResult
		bare, traced         []float64
		failedB, failedT     int
		profiles             []string
		tracedWall           time.Duration
	)
	load, window := serveLoad, e.window
	if e.traced {
		load, window = serveSteps, window/2
	}
	var pids []int
	for _, d := range c.daemons() {
		pids = append(pids, d.cmd.Process.Pid)
	}
	rss := sampleRSS(pids...)
	steps := runSteps(g, load, window, e.seed, func(k int) func(int) (string, []byte) { return jobs("m", 1+k) })
	rssMB, err := rss.median()
	if err != nil {
		return nil, err
	}
	o.e2e["rss_mb"] = rssMB
	measuredRs, bare, failedB = collectSteps(steps)
	if e.traced {
		var (
			wait func()
			err  error
		)
		if profiles, wait, err = e.profileDaemons(c, window); err != nil {
			return nil, err
		}
		g.tr, g.track = e.tr, 1
		start := time.Now()
		ts := runSteps(g, load, window, e.seed+uint64(len(load)), func(k int) func(int) (string, []byte) {
			return jobs("t", 1+len(load)+k)
		})
		tracedWall = time.Since(start)
		g.tr = nil
		wait()
		tracedRs, traced, failedT = collectSteps(ts)
		measuredRs = append(measuredRs, tracedRs...)
	}
	o.attempted = len(measuredRs)
	o.failed = failedB + failedT
	e.recordOps(o, bare)

	for _, s := range steps {
		var lat []float64
		for _, r := range s.jobs {
			if r.err == nil {
				lat = append(lat, r.latencyMs)
			}
		}
		tag := fmt.Sprintf("_r%.0f", s.rate)
		o.layer["cluster.job_ms_p50"+tag] = percentile(lat, 50)
		o.layer["cluster.job_ms_p95"+tag] = percentile(lat, 95)
		fmt.Fprintf(e.log, "  %3.0f jobs/s: n=%d p50=%.4g ms p95=%.4g ms, last job done %.0f ms after the step\n",
			s.rate, len(s.jobs), percentile(lat, 50), percentile(lat, 95), float64(s.drain)/float64(time.Millisecond))
	}
	o.layer["cluster.max_rate_jobs_per_s"] = maxSustainedRate(steps)

	var late, submit, poll []float64
	for _, r := range measuredRs {
		late = append(late, r.lateMs)
		submit = append(submit, r.submitMs)
		poll = append(poll, r.pollMs...)
	}
	o.layer["loadgen.late_ms_max"] = percentile(late, 100)
	o.layer["cluster.submit_ms_p50"] = percentile(submit, 50)
	o.layer["cluster.poll_ms_p50"] = percentile(poll, 50)
	fmt.Fprintf(e.log, "  %d conns; generator late by at most %.2f ms (p99 %.2f ms)\n",
		conns, percentile(late, 100), percentile(late, 99))

	// The same job in process: the golden check, and the count of
	// simulated events per job.
	s, err := inprocJob(0.3)
	if err != nil {
		return nil, err
	}
	eng := s.Engine()
	o.check(e.golden.check("serve_openloop", goldenEntry{Config: "acoustic refine=1 np=4 steps=4",
		Digest: fmt.Sprintf("%016x", eng.TimelineDigest()), SimSeconds: eng.TotalTime(), EnergyJ: eng.TotalEnergy}))
	o.layer["sim.instr_per_op"] = float64(eng.InstrCount)
	o.layer["sim.transfers_per_op"] = float64(eng.TransferCt)
	all := append(append([]float64(nil), bare...), traced...)
	o.layer["sim.host_ns_per_event"] = sum(all) * 1e6 / float64(len(all)) / float64(eng.InstrCount+eng.TransferCt)

	directJobs := 0
	if e.traced {
		var ms []float64
		for i := 0; i < serveClosedJobs; i++ {
			t := time.Now()
			if _, err := inprocJob(0.2 + 0.001*float64(i)); err != nil {
				return nil, err
			}
			ms = append(ms, msSince(t))
		}
		o.layer["serve.inproc_job_ms_p50"] = percentile(ms, 50)
		// A closed loop straight to one worker: the next job is sent only
		// once the previous one is done.
		dl := newOpenLoop(c.workers[0].url, "/v1/runs", 1)
		ms = ms[:0]
		job := jobs("d", 1+2*len(load))
		for i := 0; i < serveClosedJobs; i++ {
			lat, _ := collect(dl.run([]time.Duration{0}, func(int) (string, []byte) { return job(i) }))
			ms = append(ms, lat...)
		}
		dl.close()
		directJobs = serveClosedJobs
		o.layer["serve.direct_job_ms_p50"] = percentile(ms, 50)
		o.layer["cluster.overhead_ms_p50"] = o.layer["cluster.job_ms_p50_r25"] - percentile(ms, 50)
		var views []cluster.JobView
		if err := getJSON(ctl, c.ctl.url+"/v1/jobs", &views); err != nil {
			return nil, err
		}
		var q, d, x []float64
		for _, v := range views {
			if strings.HasPrefix(v.ID, "t") && v.Status == "done" {
				q = append(q, v.Stages.QueueSec*1e3)
				d = append(d, v.Stages.DispatchSec*1e3)
				x = append(x, v.Stages.ExecSec*1e3)
			}
		}
		o.layer["cluster.stage_queue_ms_p50"] = percentile(q, 50)
		o.layer["cluster.stage_dispatch_ms_p50"] = percentile(d, 50)
		o.layer["cluster.stage_exec_ms_p50"] = percentile(x, 50)
	}

	err = c.stop()
	ds := c.daemons()
	c = nil
	if err != nil {
		return nil, err
	}
	var workerCPU float64
	for _, w := range ds[1:] {
		workerCPU += w.cpuMs
	}
	o.layer["serve.cpu_ms_per_job"] = workerCPU / float64(served)
	o.layer["cluster.cpu_ms_per_job"] = ds[0].cpuMs / float64(served-directJobs)

	for _, err := range bad {
		o.check(fmt.Errorf("served job: %w", err))
	}
	if e.traced {
		if err := e.finishTrace(o, float64(tracedWall)/float64(time.Millisecond), true, bare, traced, profiles); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// profileDaemons starts a CPU profile of every daemon over its
// /debug/pprof endpoint for d (whole seconds, at least one), writing
// cpu-<daemon>.pprof files; wait returns once all are written.
func (e *env) profileDaemons(c *localCluster, d time.Duration) (files []string, wait func(), err error) {
	var wg sync.WaitGroup
	secs := max(1, int(math.Round(d.Seconds())))
	client := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	for _, dm := range c.daemons() {
		path := filepath.Join(e.outDir, "cpu-"+strings.ReplaceAll(dm.name, " ", "-")+".pprof")
		f, err := os.Create(path)
		if err != nil {
			wg.Wait()
			return nil, nil, err
		}
		files = append(files, path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Close()
			resp, err := client.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", dm.url, secs))
			if err != nil {
				fmt.Fprintf(e.log, "wavebench: profile %s: %v\n", dm.name, err)
				return
			}
			defer resp.Body.Close()
			if _, err := io.Copy(f, resp.Body); err != nil {
				fmt.Fprintf(e.log, "wavebench: profile %s: %v\n", dm.name, err)
			}
		}()
	}
	return files, wg.Wait, nil
}

// inprocJob runs the served job's simulation in this process the way a
// worker does: the JobSpec default problem from a plane wave, 4 steps.
func inprocJob(cfl float64) (*wavepim.Session, error) {
	m := mesh.New(1, 4, true)
	dt := dg.NewAcousticSolver(m, material.UniformAcoustic(m.NumElem, water), dg.RiemannFlux).MaxStableDt(cfl)
	q := dg.NewAcousticState(m)
	dg.PlaneWaveX(m, water, 1, q)
	s, err := wavepim.NewSession(wavepim.WithEquation(opcount.Acoustic), wavepim.WithMesh(m), wavepim.WithDt(dt))
	if err != nil {
		return nil, err
	}
	s.Acoustic().Load(q)
	return s, s.Run(context.Background(), 4)
}
