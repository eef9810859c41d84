package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"
)

// openLoop is a single-process open-loop job generator. Jobs arrive on a
// schedule fixed in advance whatever the system's state, and each is
// timed from the moment it was due, so a stall is charged to every job it
// delays. At most cap(sem) requests are in flight at once, over at most
// that many connections.
type openLoop struct {
	client    *http.Client
	submitURL string // POST target, e.g. <coordinator>/v1/jobs
	pollURL   string // GET prefix the job id is appended to
	sem       chan struct{}
	pollEvery time.Duration // a job is polled at most this often
	timeout   time.Duration // a job not terminal this long after it was due fails
	tr        *tracer       // per-job spans, or nil
	track     int           // first trace lane; job i uses track+i
}

// newOpenLoop builds a generator submitting to base+path and polling
// base+path+"/<id>", with at most conns requests and connections.
func newOpenLoop(base, path string, conns int) *openLoop {
	t := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &openLoop{
		client:    &http.Client{Transport: t, Timeout: 10 * time.Second},
		submitURL: base + path,
		pollURL:   base + path + "/",
		sem:       make(chan struct{}, conns),
		pollEvery: 5 * time.Millisecond,
		timeout:   10 * time.Second,
	}
}

// close releases the generator's idle connections.
func (g *openLoop) close() { g.client.CloseIdleConnections() }

// jobResult is one job as the generator saw it, in milliseconds.
type jobResult struct {
	id        string
	lateMs    float64   // submission start minus due time
	latencyMs float64   // due time to the poll that saw the job done
	submitMs  float64   // submission round trip
	pollMs    []float64 // each poll's round trip
	err       error
}

// arrivals draws n arrival offsets in [0, window) from seed, sorted: a
// Poisson process conditioned on its count, so every seed offers the
// same load.
func arrivals(seed uint64, n int, window time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, 3))
	ds := make([]time.Duration, n)
	for i := range ds {
		ds[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds
}

// run submits job i at its due offset from now and follows every job to
// a terminal state. job returns the id and JSON body of job i.
func (g *openLoop) run(due []time.Duration, job func(i int) (id string, body []byte)) []jobResult {
	res := make([]jobResult, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for i, d := range due {
		time.Sleep(time.Until(start.Add(d)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			id, body := job(i)
			res[i] = g.follow(start.Add(d), id, body, g.track+i)
		}()
	}
	wg.Wait()
	return res
}

// follow submits one job due at the given time and polls it until it is
// done, failed, or out of time.
func (g *openLoop) follow(due time.Time, id string, body []byte, track int) (r jobResult) {
	r.id = id
	root := g.tr.beginAt("cluster.job", -1, track, due)
	defer g.tr.end(root)

	g.sem <- struct{}{}
	sent := time.Now()
	r.lateMs = float64(sent.Sub(due)) / float64(time.Millisecond)
	sp := g.tr.begin("cluster.POST /v1/jobs", root, track)
	code, _, err := g.do(http.MethodPost, g.submitURL, body)
	g.tr.end(sp)
	<-g.sem
	r.submitMs = msSince(sent)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit answered %d, not 202", code)
	}
	if err != nil {
		r.err = fmt.Errorf("job %s: %w", id, err)
		return r
	}
	deadline := due.Add(g.timeout)
	for next := time.Now(); ; {
		time.Sleep(time.Until(next))
		g.sem <- struct{}{}
		t := time.Now()
		sp := g.tr.begin("cluster.GET /v1/jobs/{id}", root, track)
		code, b, err := g.do(http.MethodGet, g.pollURL+id, nil)
		g.tr.end(sp)
		<-g.sem
		r.pollMs = append(r.pollMs, msSince(t))
		next = t.Add(g.pollEvery)
		var v struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("poll answered %d", code)
		}
		if err == nil {
			err = json.Unmarshal(b, &v)
		}
		switch {
		case err != nil:
			r.err = fmt.Errorf("job %s: %w", id, err)
			return r
		case v.Status == "done":
			r.latencyMs = float64(time.Since(due)) / float64(time.Millisecond)
			return r
		case v.Status == "failed":
			r.err = fmt.Errorf("job %s failed: %s", id, v.Error)
			return r
		case time.Now().After(deadline):
			r.err = fmt.Errorf("job %s not done %v after it was due", id, g.timeout)
			return r
		}
	}
}

// do makes one request and reads the whole answer.
func (g *openLoop) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
