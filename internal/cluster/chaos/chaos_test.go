package chaos

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fixedHandler answers 200 with a fixed body.
func fixedHandler(body string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, body)
	})
}

// doPost fires one POST through the transport and returns (status, body
// read error, transport error).
func doPost(t *testing.T, tr *Transport, url, body string) (int, error, error) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	_, rerr := io.ReadAll(resp.Body)
	return resp.StatusCode, rerr, nil
}

// TestChaosDeterministicDecisions: two transports with the same seed
// make identical injection decisions for the same request sequence —
// and a different seed makes different ones.
func TestChaosDeterministicDecisions(t *testing.T) {
	ts := httptest.NewServer(fixedHandler(`{"ok":true}`))
	defer ts.Close()

	schedule := func(seed uint64) []string {
		tr := New(Config{Seed: seed, DropProb: 0.4, ErrProb: 0.2})
		var out []string
		for i := 0; i < 40; i++ {
			code, _, err := doPost(t, tr, ts.URL+"/v1/runs", `{"id":"job-a"}`)
			switch {
			case err != nil:
				out = append(out, "drop")
			case code == http.StatusServiceUnavailable:
				out = append(out, "503")
			default:
				out = append(out, "ok")
			}
		}
		return out
	}

	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at attempt %d: %v vs %v", i, a, b)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 produced identical 40-attempt schedules: %v", a)
	}
	// The mix actually injected something and let something through.
	hasFault, hasOK := false, false
	for _, s := range a {
		if s == "ok" {
			hasOK = true
		} else {
			hasFault = true
		}
	}
	if !hasFault || !hasOK {
		t.Fatalf("degenerate schedule (want both faults and passes): %v", a)
	}
}

// TestChaosRouteIndependence: different bodies on the same endpoint are
// different routes with independent attempt streams, and the host is
// excluded from the route (ephemeral ports must not perturb decisions).
func TestChaosRouteIndependence(t *testing.T) {
	mk := func(url, body string) *http.Request {
		req, err := http.NewRequest("POST", url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	rA := RouteOf(mk("http://127.0.0.1:1111/v1/runs", `{"id":"a"}`))
	rA2 := RouteOf(mk("http://127.0.0.1:2222/v1/runs", `{"id":"a"}`))
	rB := RouteOf(mk("http://127.0.0.1:1111/v1/runs", `{"id":"b"}`))
	if rA != rA2 {
		t.Fatalf("route depends on host: %q vs %q", rA, rA2)
	}
	if rA == rB {
		t.Fatalf("distinct bodies share route %q", rA)
	}
	if !strings.HasPrefix(rA, "POST /v1/runs#") {
		t.Fatalf("route %q", rA)
	}
	get, _ := http.NewRequest("GET", "http://127.0.0.1:1111/v1/runs/a", nil)
	if r := RouteOf(get); r != "GET /v1/runs/a" {
		t.Fatalf("GET route %q", r)
	}
}

// TestChaosOnlyFilter: injection is confined to matching routes; other
// traffic passes through untouched and uncounted.
func TestChaosOnlyFilter(t *testing.T) {
	ts := httptest.NewServer(fixedHandler("ok"))
	defer ts.Close()
	tr := New(Config{Seed: 1, DropProb: 1.0, Only: "POST /v1/runs"})

	// GETs sail through even at DropProb 1.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/x", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatalf("filtered route dropped: %v", err)
	}
	resp.Body.Close()
	// POSTs always drop.
	if _, _, err := doPost(t, tr, ts.URL+"/v1/runs", `{"id":"x"}`); err == nil {
		t.Fatal("unfiltered POST survived DropProb 1")
	}
	c := tr.Counts()
	if c.Requests != 1 || c.Drops != 1 {
		t.Fatalf("counts %+v (want exactly the POST counted)", c)
	}
}

// TestChaosPartition: a partitioned host fails deterministically with
// the typed chaos error until healed; the error text names no host.
func TestChaosPartition(t *testing.T) {
	ts := httptest.NewServer(fixedHandler("ok"))
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")
	tr := New(Config{Seed: 9})

	tr.Partition(host)
	_, _, err := doPost(t, tr, ts.URL+"/v1/runs", `{"id":"p"}`)
	var ce *Error
	if !errors.As(err, &ce) || ce.Kind != "partition" {
		t.Fatalf("want partition error, got %v", err)
	}
	if strings.Contains(ce.Error(), host) {
		t.Fatalf("partition error leaks the host: %s", ce.Error())
	}
	tr.Heal(host)
	if _, _, err := doPost(t, tr, ts.URL+"/v1/runs", `{"id":"p"}`); err != nil {
		t.Fatalf("healed partition still fails: %v", err)
	}
	if c := tr.Counts(); c.Partitions != 1 {
		t.Fatalf("counts %+v", c)
	}
}

// TestChaosTruncation: a truncated response yields a short prefix then a
// typed chaos error from Read, so clients see a mid-stream cut rather
// than a clean EOF.
func TestChaosTruncation(t *testing.T) {
	long := strings.Repeat("x", 4096)
	ts := httptest.NewServer(fixedHandler(long))
	defer ts.Close()
	tr := New(Config{Seed: 7, TruncateProb: 1.0})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/t", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, rerr := io.ReadAll(resp.Body)
	var ce *Error
	if !errors.As(rerr, &ce) || ce.Kind != "truncate" {
		t.Fatalf("want truncate error, got %v (read %d bytes)", rerr, len(b))
	}
	if len(b) == 0 || len(b) >= len(long) {
		t.Fatalf("truncation read %d of %d bytes", len(b), len(long))
	}
}

// TestChaosSynthesizedError: ErrProb yields a well-formed HTTP response
// carrying the API error envelope, fully readable.
func TestChaosSynthesizedError(t *testing.T) {
	ts := httptest.NewServer(fixedHandler("ok"))
	defer ts.Close()
	tr := New(Config{Seed: 3, ErrProb: 1.0})
	req, _ := http.NewRequest("GET", ts.URL+"/v1/runs/e", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"retryable":true`)) {
		t.Fatalf("synthesized body %s", b)
	}
}

// TestChaosClientPlumbs: Client wraps the transport with the timeout.
func TestChaosClientPlumbs(t *testing.T) {
	tr := New(Config{})
	cl := tr.Client(5 * time.Second)
	if cl.Transport != tr || cl.Timeout != 5*time.Second {
		t.Fatalf("client %+v", cl)
	}
}
