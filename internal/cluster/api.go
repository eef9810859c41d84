package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// The versioned HTTP surface. Every coordinator and worker endpoint lives
// under /v1; DESIGN.md §12 documents the surface.

// APIPrefix is the path prefix of the current API version.
const APIPrefix = "/v1"

// APIError is the single error envelope every /v1 endpoint returns on
// failure. Code is a stable machine-readable string from the vocabulary
// below; Retryable tells a client whether the same request can succeed
// later without modification (backpressure, draining, transient upstream
// failures) or is permanently malformed/missing.
type APIError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// The error-code vocabulary. Codes are append-only: clients switch on
// them, so renaming one is a breaking API change.
const (
	CodeBadRequest = "bad_request" // malformed body, or a spec JobSpec.Normalize rejects (*SpecError)
	CodeNotFound   = "not_found"   // no such run/job, or no flight dump recorded
	CodeNotReady   = "not_ready"   // resource exists but is not available yet (trace of a queued run)
	CodeDraining   = "draining"    // server is shutting down; resubmit elsewhere or later
	CodeQueueFull  = "queue_full"  // worker job queue at capacity
	CodeQuota      = "quota"       // tenant quota exhausted
	CodeConflict   = "conflict"    // id already tracked with different content

	CodeUpstream = "upstream" // a worker the coordinator proxied to failed
	CodeInternal = "internal" // invariant violation inside the server
)

// WriteAPIError writes the envelope with the given status.
func WriteAPIError(w http.ResponseWriter, status int, code string, retryable bool, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(APIError{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryable,
	})
}
