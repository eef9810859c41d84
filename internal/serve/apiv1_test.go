package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"wavepim/internal/cluster"
)

// noRedirect is a client that surfaces 3xx responses instead of
// following them, so a test sees exactly what an endpoint answers.
var noRedirect = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	},
}

// decodeEnvelope asserts a response is the typed APIError envelope and
// returns it.
func decodeEnvelope(t *testing.T, resp *http.Response) cluster.APIError {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var e cluster.APIError
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("error body is not the envelope: %v (%s)", err, b)
	}
	if e.Code == "" || e.Message == "" {
		t.Fatalf("envelope missing code or message: %s", b)
	}
	return e
}

// TestV1EndpointsReachable drives every daemon endpoint at its /v1 path
// directly (no redirects involved).
func TestV1EndpointsReachable(t *testing.T) {
	_, ts := testServer(t, 1, 4)
	code, out := postJSON(t, ts.URL+"/v1/runs", `{"equation":"acoustic","steps":1,"topology":"mesh"}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/runs: %d", code)
	}
	id := out["id"]
	waitRun(t, ts.URL, id)

	for _, path := range []string{
		"/v1/runs", "/v1/runs/" + id, "/v1/runs/" + id + "/events",
		"/v1/runs/" + id + "/trace", "/v1/metrics", "/v1/healthz", "/v1/readyz",
		"/v1/debug/pprof/", "/debug/pprof/",
	} {
		resp, err := noRedirect.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestLegacyPathsGone: the pre-/v1 unversioned surface is not mounted;
// every legacy path answers 404, never a redirect.
func TestLegacyPathsGone(t *testing.T) {
	_, ts := testServer(t, 1, 4)
	for _, tc := range []struct{ method, path string }{
		{"GET", "/runs"},
		{"POST", "/runs"},
		{"GET", "/runs/r0001"},
		{"GET", "/runs/r0001/events?follow=1"},
		{"GET", "/metrics"},
		{"GET", "/healthz"},
		{"GET", "/readyz"},
	} {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noRedirect.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
}

// TestErrorEnvelope: every error path answers the typed
// {code, message, retryable} envelope with the documented code.
func TestErrorEnvelope(t *testing.T) {
	_, ts := testServer(t, 1, 4)
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
		code                     string
		retryable                bool
	}{
		{"bad JSON", "POST", "/v1/runs", `{`, 400, cluster.CodeBadRequest, false},
		{"unknown equation", "POST", "/v1/runs", `{"equation":"navier-stokes"}`, 400, cluster.CodeBadRequest, false},
		{"unknown topology", "POST", "/v1/runs", `{"equation":"acoustic","topology":"hypercube"}`, 400, cluster.CodeBadRequest, false},
		{"bad job id", "POST", "/v1/runs", `{"equation":"acoustic","id":"no spaces allowed!"}`, 400, cluster.CodeBadRequest, false},
		{"refine past the block cap", "POST", "/v1/runs", `{"equation":"acoustic","refine":11}`, 400, cluster.CodeBadRequest, false},
		{"np below range", "POST", "/v1/runs", `{"np":1}`, 400, cluster.CodeBadRequest, false},
		{"np above range", "POST", "/v1/runs", `{"np":9}`, 400, cluster.CodeBadRequest, false},
		{"bad faults spec", "POST", "/v1/runs", `{"faults":"seed=banana"}`, 400, cluster.CodeBadRequest, false},
		{"bad recover spec", "POST", "/v1/runs", `{"recover":"retries=lots"}`, 400, cluster.CodeBadRequest, false},
		{"missing run", "GET", "/v1/runs/nope", "", 404, cluster.CodeNotFound, false},
		{"missing flight", "GET", "/v1/runs/nope/flight", "", 404, cluster.CodeNotFound, false},
	} {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noRedirect.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		e := decodeEnvelope(t, resp)
		if e.Code != tc.code || e.Retryable != tc.retryable {
			t.Errorf("%s: envelope {%s retryable=%v}, want {%s retryable=%v}",
				tc.name, e.Code, e.Retryable, tc.code, tc.retryable)
		}
	}
}

// TestErrorEnvelopeDraining: the drain path is retryable.
func TestErrorEnvelopeDraining(t *testing.T) {
	s, ts := testServer(t, 1, 4)
	s.Drain()
	resp, err := noRedirect.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	e := decodeEnvelope(t, resp)
	if e.Code != cluster.CodeDraining || !e.Retryable {
		t.Errorf("envelope {%s retryable=%v}, want {draining retryable=true}", e.Code, e.Retryable)
	}

	resp, err = noRedirect.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"equation":"acoustic"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	e = decodeEnvelope(t, resp)
	if e.Code != cluster.CodeDraining || !e.Retryable {
		t.Errorf("envelope {%s retryable=%v}, want {draining retryable=true}", e.Code, e.Retryable)
	}
}
