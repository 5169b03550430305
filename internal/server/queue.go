package server

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Async job tracking. A job here is bookkeeping around a flight: the
// compute itself runs on the shared worker pool exactly like a synchronous
// request (and coalesces with synchronous requests for the same hash); the
// record is what GET /v1/jobs/{id} serves.

// Job statuses.
const (
	// JobRunning covers queued-or-executing: the flight is unresolved.
	JobRunning = "running"
	// JobDone means the result is attached.
	JobDone = "done"
	// JobError means the computation failed (or was cancelled without a
	// partial result).
	JobError = "error"
)

// JobStatus is the wire form of one async job record.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Hash is the request's cache/coalescing key; two jobs with one hash
	// share one computation.
	Hash       string `json:"hash"`
	Status     string `json:"status"`
	CreatedAt  string `json:"created_at"`
	FinishedAt string `json:"finished_at,omitempty"`
	// Result is the endpoint's response body, present once Status is done.
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

type jobRecord struct {
	mu       sync.Mutex
	id       string
	kind     string
	hash     string
	status   string
	created  time.Time
	finished time.Time
	result   any
	err      string
}

func (j *jobRecord) complete(val any, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	// A drain can resolve a flight with both a partial result and an error;
	// keep the partial so the poller still gets the ranked prefix.
	j.status, j.result = JobDone, val
	if err != nil {
		j.status, j.err = JobError, err.Error()
	}
}

func (j *jobRecord) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:        j.id,
		Kind:      j.kind,
		Hash:      j.hash,
		Status:    j.status,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Result:    j.result,
		Error:     j.err,
	}
	if !j.finished.IsZero() {
		s.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return s
}

// finishedAt reports the record's completion time, if it has one.
func (j *jobRecord) finishedAt() (time.Time, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished, !j.finished.IsZero()
}

// jobRegistry bounds retained records two ways. A TTL expires finished
// records a fixed window after completion (running records never age out —
// their flight is still live), swept lazily on every add/get/len so the
// ivoryd_async_jobs_tracked gauge stabilizes under churn instead of only
// shrinking when the cap overflows. The cap is the hard memory bound:
// once over it, finished records are evicted oldest-first; only when every
// retained record is still running does the registry drop running handles,
// oldest-first (the evicted job keeps computing and lands in the result
// cache; only its polling handle is gone).
type jobRegistry struct {
	mu    sync.Mutex
	m     map[string]*jobRecord
	order []string // insertion order, oldest first
	cap   int
	ttl   time.Duration    // <= 0 disables TTL expiry
	now   func() time.Time // injectable clock for the retention tests
}

func newJobRegistry(capacity int, ttl time.Duration) *jobRegistry {
	return &jobRegistry{m: map[string]*jobRecord{}, cap: capacity, ttl: ttl, now: time.Now}
}

// sweepLocked applies TTL expiry, then the cap. r.mu must be held.
func (r *jobRegistry) sweepLocked() {
	if r.ttl > 0 {
		cutoff := r.now().Add(-r.ttl)
		keep := r.order[:0]
		for _, id := range r.order {
			if t, done := r.m[id].finishedAt(); done && t.Before(cutoff) {
				delete(r.m, id)
				continue
			}
			keep = append(keep, id)
		}
		r.order = keep
	}
	if over := len(r.order) - r.cap; over > 0 {
		keep := r.order[:0]
		for _, id := range r.order {
			if _, done := r.m[id].finishedAt(); done && over > 0 {
				delete(r.m, id)
				over--
				continue
			}
			keep = append(keep, id)
		}
		r.order = keep
	}
	// Still over cap: everything left is running. Drop the oldest handles.
	if over := len(r.order) - r.cap; over > 0 {
		for _, id := range r.order[:over] {
			delete(r.m, id)
		}
		r.order = append(r.order[:0], r.order[over:]...)
	}
}

func (r *jobRegistry) add(rec *jobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[rec.id] = rec
	r.order = append(r.order, rec.id)
	r.sweepLocked()
}

func (r *jobRegistry) get(id string) (*jobRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	rec, ok := r.m[id]
	return rec, ok
}

func (r *jobRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepLocked()
	return len(r.m)
}

// newJobID returns a 16-hex-char random identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unheard of on supported platforms; fall
		// back to a time-derived id rather than refusing the job.
		return hex.EncodeToString([]byte(time.Now().Format("150405.000000000")))[:16]
	}
	return hex.EncodeToString(b[:])
}
