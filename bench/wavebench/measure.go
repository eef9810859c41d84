package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// measured is one run's per-operation wall times.
type measured struct {
	bare   []float64     // operations run without tracing
	rssMB  float64       // median resident set while the bare operations ran
	traced []float64     // -trace 1: operations run under spans and a CPU profile
	wall   time.Duration // -trace 1: wall time of the traced operations
}

// all returns every measured operation time.
func (m measured) all() []float64 { return append(append([]float64(nil), m.bare...), m.traced...) }

// measure calls op back to back until the window has passed, stopping
// only after a whole multiple of unit calls, and returns each call's
// milliseconds, with this process's resident set sampled throughout. In
// a traced run the window is split in two: the first half runs bare, the
// second half under one span per call named name(i) and an in-process
// CPU profile written to cpu.pprof in the output directory. The second
// half's wall time is measured apart from the spans, so what the loop
// spends between calls shows as the part of it the spans do not cover.
func (e *env) measure(unit int, name func(i int) string, op func(i int) error) (measured, error) {
	var m measured
	half := e.window
	if e.traced {
		half /= 2
	}
	rss := sampleRSS(os.Getpid())
	var err error
	m.bare, err = loop(half, unit, 0, op, nil)
	rssMB, rssErr := rss.median()
	m.rssMB = rssMB
	if err == nil {
		err = rssErr
	}
	if err != nil || !e.traced {
		return m, err
	}
	f, err := os.Create(filepath.Join(e.outDir, "cpu.pprof"))
	if err != nil {
		return m, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return m, err
	}
	start := time.Now()
	m.traced, err = loop(half, unit, len(m.bare), op, func(i int) func() {
		s := e.tr.begin(name(i), -1, 0)
		return func() { e.tr.end(s) }
	})
	m.wall = time.Since(start)
	pprof.StopCPUProfile()
	if err != nil {
		return m, err
	}
	return m, f.Close()
}

// loop runs op(first), op(first+1), ... until d has passed at a whole
// multiple of unit calls, timing each call. wrap, when set, opens a span
// before a call and returns the function that closes it. The first error
// ends the loop; the failed call's time is still returned.
func loop(d time.Duration, unit, first int, op func(i int) error, wrap func(i int) func()) ([]float64, error) {
	var ms []float64
	start := time.Now()
	for i := first; ; i++ {
		if (i-first)%unit == 0 && time.Since(start) >= d {
			return ms, nil
		}
		var done func()
		if wrap != nil {
			done = wrap(i)
		}
		t := time.Now()
		err := op(i)
		ms = append(ms, msSince(t))
		if done != nil {
			done()
		}
		if err != nil {
			return ms, err
		}
	}
}

// rssSampler sums the resident sets of a set of processes every
// rssEvery until stopped. The median of its samples is the memory a run
// holds. The peak would be one extreme out of hundreds of garbage
// collection cycles, which depends on how the collector was scheduled.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mb   []float64
	err  error
}

const rssEvery = 50 * time.Millisecond

// sampleRSS starts sampling the summed resident set of pids.
func sampleRSS(pids ...int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var sum float64
			for _, pid := range pids {
				mb, err := rssMB(pid)
				if err != nil {
					s.err = err
					return
				}
				sum += mb
			}
			s.mb = append(s.mb, sum)
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// median stops the sampler, waits for it, and returns its median sample.
func (s *rssSampler) median() (float64, error) {
	close(s.stop)
	<-s.done
	return median(s.mb), s.err
}

// rssMB is a process's resident set in MB, from /proc/<pid>/statm.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("/proc/%d/statm: %q", pid, b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("/proc/%d/statm: %w", pid, err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// msSince is the milliseconds elapsed since t.
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
