package cluster_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"wavepim/internal/cluster"
)

// noFollow surfaces 3xx responses instead of following them, so a test
// sees exactly what an endpoint answers.
var noFollow = &http.Client{
	CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	},
}

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

// TestCoordV1Surface: every coordinator endpoint answers at its /v1
// path, and every legacy unversioned path answers 404.
func TestCoordV1Surface(t *testing.T) {
	tc := startCluster(t, 1, clusterOptions{})
	code, body := tc.submit(t, `{"equation":"acoustic","steps":1,"topology":"torus"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &acc); err != nil {
		t.Fatal(err)
	}
	id := acc.ID
	if status, _ := tc.waitJob(t, id, 30*time.Second); status != "done" {
		t.Fatalf("job %s finished %q, want done", id, status)
	}

	for _, path := range []string{
		"/v1/jobs", "/v1/jobs/" + id, "/v1/jobs/" + id + "/events",
		"/v1/jobs/" + id + "/trace",
		"/v1/workers", "/v1/metrics", "/v1/healthz", "/v1/readyz",
	} {
		resp, err := noFollow.Get(tc.coordTS.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}

	for _, tc2 := range []struct{ method, path string }{
		{"POST", "/jobs"},
		{"GET", "/jobs"},
		{"GET", "/jobs/" + id},
		{"POST", "/register"},
		{"POST", "/deregister"},
		{"GET", "/workers"},
		{"GET", "/metrics"},
		{"GET", "/healthz"},
		{"GET", "/readyz"},
	} {
		req, err := http.NewRequest(tc2.method, tc.coordTS.URL+tc2.path, strings.NewReader(""))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", tc2.method, tc2.path, resp.StatusCode)
		}
	}
}

// TestCoordErrorEnvelope: coordinator error paths answer the typed
// {code, message, retryable} envelope.
func TestCoordErrorEnvelope(t *testing.T) {
	tc := startCluster(t, 1, clusterOptions{})
	for _, c := range []struct {
		name, method, path, body string
		status                   int
		code                     string
		retryable                bool
	}{
		{"bad JSON", "POST", "/v1/jobs", `{`, 400, cluster.CodeBadRequest, false},
		{"unknown equation", "POST", "/v1/jobs", `{"equation":"navier-stokes"}`, 400, cluster.CodeBadRequest, false},
		{"unknown topology", "POST", "/v1/jobs", `{"equation":"acoustic","topology":"clos"}`, 400, cluster.CodeBadRequest, false},
		{"bad job id", "POST", "/v1/jobs", `{"equation":"acoustic","id":"no spaces allowed!"}`, 400, cluster.CodeBadRequest, false},
		{"bad priority", "POST", "/v1/jobs", `{"equation":"acoustic","priority":"urgent"}`, 400, cluster.CodeBadRequest, false},
		{"refine past the block cap", "POST", "/v1/jobs", `{"equation":"acoustic","refine":11}`, 400, cluster.CodeBadRequest, false},
		{"np below range", "POST", "/v1/jobs", `{"np":1}`, 400, cluster.CodeBadRequest, false},
		{"np above range", "POST", "/v1/jobs", `{"np":9}`, 400, cluster.CodeBadRequest, false},
		{"bad faults spec", "POST", "/v1/jobs", `{"faults":"seed=banana"}`, 400, cluster.CodeBadRequest, false},
		{"bad recover spec", "POST", "/v1/jobs", `{"recover":"retries=lots"}`, 400, cluster.CodeBadRequest, false},
		{"missing job", "GET", "/v1/jobs/nope", "", 404, cluster.CodeNotFound, false},
		{"missing job events", "GET", "/v1/jobs/nope/events", "", 404, cluster.CodeNotFound, false},
	} {
		var body io.Reader
		if c.body != "" {
			body = strings.NewReader(c.body)
		}
		req, err := http.NewRequest(c.method, tc.coordTS.URL+c.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := noFollow.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.status)
		}
		e := decodeEnvelope(t, resp)
		if e.Code != c.code || e.Retryable != c.retryable {
			t.Errorf("%s: envelope {%s retryable=%v}, want {%s retryable=%v}",
				c.name, e.Code, e.Retryable, c.code, c.retryable)
		}
	}
}
