package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// RegisterRequest is the POST /register and /deregister body a worker
// sends the coordinator.
type RegisterRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// Heartbeater keeps one worker registered with the coordinator: an
// immediate registration on Start, then periodic re-registration until
// Stop. Deregister performs the draining handoff — the coordinator drops
// the worker from the ring and rebalances its key range before the
// worker drains its queue.
type Heartbeater struct {
	Coordinator string // coordinator base URL, e.g. http://127.0.0.1:9090
	ID          string // worker id (ring node name)
	URL         string // worker base URL the coordinator forwards jobs to
	Interval    time.Duration
	// MaxBackoff caps the beat delay while the coordinator is unreachable
	// (default 8×Interval). Consecutive failures double the delay from
	// Interval up to this cap, so a partitioned worker does not hammer a
	// struggling coordinator; the first success snaps back to Interval.
	MaxBackoff time.Duration
	Client     *http.Client

	once     sync.Once
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

func (h *Heartbeater) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

func (h *Heartbeater) post(path string) error {
	body, _ := json.Marshal(RegisterRequest{ID: h.ID, URL: h.URL})
	resp, err := h.client().Post(h.Coordinator+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s %s: status %d", path, h.ID, resp.StatusCode)
	}
	return nil
}

// Register sends one registration beat.
func (h *Heartbeater) Register() error { return h.post(APIPrefix + "/register") }

// Deregister removes the worker from the coordinator's ring.
func (h *Heartbeater) Deregister() error { return h.post(APIPrefix + "/deregister") }

// Start registers immediately (returning that first beat's error, so a
// worker pointed at a dead coordinator fails loudly at startup) and then
// re-registers every Interval until Stop.
func (h *Heartbeater) Start() error {
	err := h.Register()
	if err != nil {
		return err
	}
	interval := h.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	maxBackoff := h.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 8 * interval
	}
	h.once.Do(func() {
		h.stop = make(chan struct{})
		h.done = make(chan struct{})
		go func() {
			defer close(h.done)
			delay := interval
			fails := 0 // consecutive beat failures
			t := time.NewTimer(delay)
			defer t.Stop()
			for {
				select {
				case <-h.stop:
					return
				case <-t.C:
					if err := h.Register(); err != nil {
						fails++
						delay = interval << uint(min(fails, 30))
						if delay > maxBackoff || delay <= 0 {
							delay = maxBackoff
						}
					} else {
						fails = 0
						delay = interval
					}
					t.Reset(delay)
				}
			}
		}()
	})
	return nil
}

// Stop halts the beat loop (it does not deregister; call Deregister for
// the draining handoff). Safe to call more than once and from multiple
// goroutines.
func (h *Heartbeater) Stop() {
	if h.stop == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	<-h.done
}
