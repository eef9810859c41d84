// Package chaos is a deterministic, seedable fault-injecting
// http.RoundTripper for the cluster's control plane. It models the
// canonical failure modes of a distributed serving plane — dropped
// connections, injected latency, 5xx responses, truncated response
// bodies, and per-host network partitions — the same way
// internal/pim/fault models memristor defects: every decision is a pure
// splitmix64 hash of (seed, route, attempt), never of wall-clock time or
// goroutine scheduling.
//
// A route is the canonical identity of a request — "METHOD /path", plus
// a digest of the body for POSTs — and each route carries its own
// monotonic attempt counter. The k-th request on a route therefore sees
// the same injection decision in every run with the same seed,
// regardless of when or on which goroutine it fires. That is what lets
// the chaos test suite demand byte-identical final job tables across two
// runs of the same seeded schedule: retries may land at different
// wall-clock times, but the k-th dispatch of a given job meets the same
// fate.
//
// The transport plugs into cluster.CoordinatorOptions.Client and
// cluster.Heartbeater.Client; production code never imports it.
package chaos

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Config holds the injection knobs. The zero value injects nothing.
// Probabilities are independent per fault kind: each kind hashes the
// same (seed, route, attempt) triple under its own salt.
type Config struct {
	Seed uint64 // base seed for every hash-derived decision

	DropProb float64 // per-attempt probability of a connection-level failure

	DelayProb float64       // per-attempt probability of injected latency
	Delay     time.Duration // latency to inject when DelayProb fires (default 2ms)

	ErrProb   float64 // per-attempt probability of a synthesized HTTP error
	ErrStatus int     // status of the synthesized error (default 503)

	TruncateProb float64 // per-attempt probability the response body is cut short

	// Only filters injection to routes containing the substring (e.g.
	// "POST /v1/runs" faults dispatches but leaves status polls clean).
	// Empty means every route is eligible.
	Only string
}

// Error is the deterministic transport error the chaos layer injects.
// Its text deliberately contains no host or port (ephemeral listener
// ports would otherwise leak run-to-run nondeterminism into error
// messages that end up in job tables).
type Error struct {
	Kind    string // "drop", "truncate", "partition"
	Route   string
	Attempt uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("chaos: %s (route %s, attempt %d)", e.Kind, e.Route, e.Attempt)
}

// Counts aggregates what the transport injected.
type Counts struct {
	Requests   uint64 `json:"requests"`
	Drops      uint64 `json:"drops"`
	Delays     uint64 `json:"delays"`
	Errors     uint64 `json:"errors"`
	Truncates  uint64 `json:"truncates"`
	Partitions uint64 `json:"partitions"`
}

// Transport is the fault-injecting RoundTripper. It wraps
// http.DefaultTransport and is safe for concurrent use.
type Transport struct {
	cfg Config

	mu          sync.Mutex
	attempts    map[string]uint64
	partitioned map[string]bool
	counts      Counts
}

// New builds a Transport over http.DefaultTransport.
func New(cfg Config) *Transport {
	if cfg.Delay <= 0 {
		cfg.Delay = 2 * time.Millisecond
	}
	if cfg.ErrStatus == 0 {
		cfg.ErrStatus = http.StatusServiceUnavailable
	}
	return &Transport{
		cfg:         cfg,
		attempts:    map[string]uint64{},
		partitioned: map[string]bool{},
	}
}

// Client wraps the transport in an http.Client with the given timeout.
func (t *Transport) Client(timeout time.Duration) *http.Client {
	return &http.Client{Transport: t, Timeout: timeout}
}

// Partition makes every request to host (as it appears in the request
// URL, e.g. "127.0.0.1:8081") fail deterministically until Heal.
func (t *Transport) Partition(host string) {
	t.mu.Lock()
	t.partitioned[host] = true
	t.mu.Unlock()
}

// Heal lifts a partition.
func (t *Transport) Heal(host string) {
	t.mu.Lock()
	delete(t.partitioned, host)
	t.mu.Unlock()
}

// Counts snapshots the injection tallies.
func (t *Transport) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// Hash salts separating the per-kind decision streams.
const (
	saltDrop     = 0x44524f50 // "DROP"
	saltDelay    = 0x44454c59 // "DELY"
	saltErr      = 0x45525253 // "ERRS"
	saltTruncate = 0x5452554e // "TRUN"
)

// splitmix64 is the SplitMix64 finalizer (same construction as
// internal/pim/fault and cluster.RingKey).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds the arguments into one hash value.
func mix(xs ...uint64) uint64 {
	h := uint64(0x51_7cc1b727220a95)
	for _, x := range xs {
		h = splitmix64(h ^ x)
	}
	return h
}

// u01 maps a hash to a uniform float64 in [0,1).
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// hit decides one fault kind for one (route, attempt).
func (t *Transport) hit(salt, routeHash, attempt uint64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	return u01(mix(t.cfg.Seed, salt, routeHash, attempt)) < prob
}

// fnv is FNV-1a over a string.
func fnv(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// RouteOf canonicalizes a request to its chaos route: "METHOD /path",
// with a body digest suffix when the request carries a replayable body
// (so two jobs POSTed to the same endpoint are distinct routes with
// independent attempt streams). The host is deliberately excluded —
// ephemeral test ports must not perturb the decision stream.
func RouteOf(req *http.Request) string {
	route := req.Method + " " + req.URL.Path
	if req.GetBody != nil && req.ContentLength > 0 {
		if rd, err := req.GetBody(); err == nil {
			b, err := io.ReadAll(rd)
			if err == nil && len(b) > 0 {
				route += fmt.Sprintf("#%016x", fnv(string(b)))
			}
		}
	}
	return route
}

// truncatedBody yields a prefix of the underlying body, then fails the
// read with the chaos error so clients observe a mid-stream cut.
type truncatedBody struct {
	rc    io.ReadCloser
	left  int
	cause error
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.left <= 0 {
		return 0, b.cause
	}
	if len(p) > b.left {
		p = p[:b.left]
	}
	n, err := b.rc.Read(p)
	b.left -= n
	if err == io.EOF {
		// The body was shorter than the cut point; truncation is moot.
		return n, err
	}
	if b.left <= 0 && err == nil {
		err = b.cause
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }

// RoundTrip injects faults per (seed, route, attempt), in a fixed
// precedence order: partition, drop, synthesized error, then (on a real
// response) truncation; injected latency applies before the request is
// forwarded.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	route := RouteOf(req)
	if t.cfg.Only != "" && !strings.Contains(route, t.cfg.Only) {
		return http.DefaultTransport.RoundTrip(req)
	}

	t.mu.Lock()
	t.counts.Requests++
	t.attempts[route]++
	attempt := t.attempts[route]
	parted := t.partitioned[req.URL.Host]
	t.mu.Unlock()

	if parted {
		t.bump(func(c *Counts) { c.Partitions++ })
		return nil, &Error{Kind: "partition", Route: route, Attempt: attempt}
	}
	rh := fnv(route)
	if t.hit(saltDelay, rh, attempt, t.cfg.DelayProb) {
		t.bump(func(c *Counts) { c.Delays++ })
		time.Sleep(t.cfg.Delay)
	}
	if t.hit(saltDrop, rh, attempt, t.cfg.DropProb) {
		t.bump(func(c *Counts) { c.Drops++ })
		return nil, &Error{Kind: "drop", Route: route, Attempt: attempt}
	}
	if t.hit(saltErr, rh, attempt, t.cfg.ErrProb) {
		t.bump(func(c *Counts) { c.Errors++ })
		body := fmt.Sprintf(`{"code":"queue_full","message":"chaos: injected %d (route %s, attempt %d)","retryable":true}`,
			t.cfg.ErrStatus, route, attempt)
		return &http.Response{
			StatusCode:    t.cfg.ErrStatus,
			Status:        fmt.Sprintf("%d chaos", t.cfg.ErrStatus),
			Proto:         req.Proto,
			ProtoMajor:    req.ProtoMajor,
			ProtoMinor:    req.ProtoMinor,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if t.hit(saltTruncate, rh, attempt, t.cfg.TruncateProb) {
		t.bump(func(c *Counts) { c.Truncates++ })
		resp.Body = &truncatedBody{
			rc:    resp.Body,
			left:  8,
			cause: &Error{Kind: "truncate", Route: route, Attempt: attempt},
		}
	}
	return resp, nil
}

// bump applies one tally mutation under the lock.
func (t *Transport) bump(f func(*Counts)) {
	t.mu.Lock()
	f(&t.counts)
	t.mu.Unlock()
}
