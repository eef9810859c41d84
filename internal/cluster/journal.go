package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"wavepim/internal/cluster/trace"
)

// The coordinator's crash-safety layer: an append-only JSONL job journal.
// Every accepted job writes a "submit" record before its 202 leaves the
// building, every successful forward writes a "dispatch" record, every
// bounce writes a "retry" record carrying the retry it charged and its
// cause, and every terminal transition writes a "terminal" record
// carrying the worker's report bytes, the last owner, the retries
// charged in total and the job's timeline. On startup the journal is
// replayed: each record folds through the same transition the live job
// took (cjob.advance), so jobs with a terminal record are restored
// exactly as they were served (reports and traces byte-for-byte), and
// jobs without one are re-admitted to the dispatch queues — a job that
// was mid-flight when the process died is re-POSTed under its idempotent
// id, so the owning worker returns the existing run instead of executing
// twice. A re-admitted job keeps the retries its records charged, so a
// restart never refills its budget.
//
// Durability is fsync-batched (group commit): concurrent Appends ride a
// single write+fsync performed by one flusher goroutine, and each Append
// returns only after the batch containing its record is on disk. A crash
// can therefore lose only records whose Append had not yet returned —
// i.e. jobs whose submitters never saw a 202 and will retry under the
// same idempotent id.

// Journal record types.
const (
	JournalSubmit   = "submit"
	JournalDispatch = "dispatch"
	JournalRetry    = "retry"
	JournalTerminal = "terminal"
)

// JournalRecord is one JSONL line. Field order is fixed by the struct.
type JournalRecord struct {
	T        string          `json:"t"`                  // submit | dispatch | retry | terminal
	ID       string          `json:"id"`                 // canonical job id
	Spec     json.RawMessage `json:"spec,omitempty"`     // submit: the canonical forward body
	Worker   string          `json:"worker,omitempty"`   // dispatch: the accepting worker; terminal: the last owner
	Status   string          `json:"status,omitempty"`   // terminal: done | failed
	Error    string          `json:"error,omitempty"`    // retry: the bounce cause; terminal: failure message
	Cached   bool            `json:"cached,omitempty"`   // terminal: served from the result cache
	Attempts int             `json:"attempts,omitempty"` // retry: retries charged by it; terminal: in total
	Result   json.RawMessage `json:"result,omitempty"`   // terminal: the worker's report bytes

	// The job's timeline, on a terminal record: the coordinator's spans
	// and the owning worker's Chrome trace as fetched (nil: none). Replay
	// rebuilds the job's trace from them, and GET /v1/jobs/{id}/trace
	// merges them on read. The record marshal compacts WorkerTrace, which
	// cannot change the served bytes: the merge decodes the worker's
	// events before it encodes anything.
	Spans       []trace.Span    `json:"spans,omitempty"`
	WorkerTrace json.RawMessage `json:"worker_trace,omitempty"`
}

// Journal is the append-only JSONL file with group-commit durability.
type Journal struct {
	mu        sync.Mutex
	cond      *sync.Cond
	f         *os.File
	buf       []byte
	appendSeq int64 // last Append admitted to buf
	syncedSeq int64 // all appends <= this are fsynced
	err       error // first write/fsync error, latched
	closed    bool
	flusherWG sync.WaitGroup
	records   int64 // total records on disk (replayed + appended)
}

// OpenJournal opens (creating if needed) the journal at path, replays
// its existing records, and returns them in file order. A torn final
// line — the signature of a crash mid-write — is tolerated: it is
// TRUNCATED away (not just skipped) so the next append starts on a clean
// line instead of concatenating onto the fragment and being lost on the
// following replay. Any other parse failure is an error (the journal is
// corrupt and replay would silently lose jobs).
func OpenJournal(path string) (*Journal, []JournalRecord, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: open journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: read journal: %w", err)
	}
	var recs []JournalRecord
	validEnd := 0 // byte offset just past the last well-formed record
	torn := false
	for off := 0; off < len(data); {
		lineEnd := len(data)
		terminated := false
		if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
			lineEnd = off + nl + 1
			terminated = true
		}
		line := bytes.TrimSpace(data[off:lineEnd])
		if len(line) > 0 {
			var rec JournalRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				torn = true
			} else {
				if torn {
					// A malformed line followed by a well-formed one is not a
					// torn tail — the file is corrupt in the middle.
					f.Close()
					return nil, nil, fmt.Errorf("cluster: journal %s corrupt mid-file", path)
				}
				if !terminated {
					// A parseable final record missing its newline: keep it,
					// but rewrite the terminator so the next append does not
					// share its line.
					torn = false
					recs = append(recs, rec)
					validEnd = lineEnd
					break
				}
				recs = append(recs, rec)
				validEnd = lineEnd
			}
		} else if !torn {
			validEnd = lineEnd
		}
		off = lineEnd
	}
	if validEnd < len(data) {
		if err := f.Truncate(int64(validEnd)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(validEnd), 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("cluster: seek journal: %w", err)
	}
	if validEnd > 0 && data[validEnd-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("cluster: terminate journal tail: %w", err)
		}
	}
	j := &Journal{f: f, records: int64(len(recs))}
	j.cond = sync.NewCond(&j.mu)
	j.flusherWG.Add(1)
	go j.flusher()
	return j, recs, nil
}

// Append durably writes one record: it returns once the group commit
// containing the record has been written and fsynced (or with the
// journal's latched error).
func (j *Journal) Append(rec JournalRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("cluster: marshal journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("cluster: journal closed")
	}
	if j.err != nil {
		return j.err
	}
	j.buf = append(j.buf, line...)
	j.buf = append(j.buf, '\n')
	j.appendSeq++
	my := j.appendSeq
	j.cond.Broadcast() // wake the flusher
	for j.syncedSeq < my && j.err == nil {
		j.cond.Wait()
	}
	if j.err != nil {
		return j.err
	}
	j.records++
	return nil
}

// flusher performs the group commits: it drains whatever accumulated in
// buf, writes and fsyncs it as one batch, then wakes every Append
// waiting on that batch.
func (j *Journal) flusher() {
	defer j.flusherWG.Done()
	j.mu.Lock()
	for {
		for len(j.buf) == 0 && !j.closed {
			j.cond.Wait()
		}
		if len(j.buf) == 0 && j.closed {
			j.mu.Unlock()
			return
		}
		batch := j.buf
		top := j.appendSeq
		j.buf = nil
		j.mu.Unlock()

		_, werr := j.f.Write(batch)
		if werr == nil {
			werr = j.f.Sync()
		}

		j.mu.Lock()
		if werr != nil && j.err == nil {
			j.err = werr
		}
		j.syncedSeq = top
		j.cond.Broadcast()
	}
}

// Records reports the total records on disk (replayed plus appended).
func (j *Journal) Records() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close flushes pending records and closes the file. Appends after Close
// fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.cond.Broadcast()
	j.mu.Unlock()
	j.flusherWG.Wait()
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayStats summarizes a journal replay for /v1/readyz.
type ReplayStats struct {
	Records  int `json:"records"`  // journal records read at startup
	Restored int `json:"restored"` // terminal jobs restored with their reports, or failed for a spent retry budget
	Requeued int `json:"requeued"` // queued/in-flight jobs re-admitted for dispatch
	Dropped  int `json:"dropped"`  // records skipped (unparsable spec, duplicate id)
}
