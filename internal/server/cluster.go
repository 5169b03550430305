package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ivory/internal/core"
)

// Cluster mode: a coordinator ivoryd partitions each exploration's
// enumerated design space into contiguous slices and fans them out to
// worker replicas over the shard API (shard.go). The deterministic-merge
// contract does the heavy lifting — outcomes land in per-ref slots and the
// engine merges them in enumeration order — so the coordinator's ranked
// result is bit-identical to a single-node run at any worker count, for
// both the exhaustive sweep and the staged adaptive search (whose
// branch-and-bound control loop runs on the coordinator; only evaluation
// batches travel).
//
// Failure model: shards are all-or-nothing and idempotent (keyed by
// spec hash + slice), so a timed-out or 5xx'd shard is simply retried on
// the next replica — at most once in flight per attempt, never merged
// twice. When a shard exhausts its retries the coordinator returns what
// completed with ErrIncomplete, mirroring the cancellation contract:
// ranked partial results with an explicit marker, never a torn merge.

// ErrIncomplete marks a cluster exploration that lost shards after
// exhausting retries: the result is a valid ranked partial over the
// completed slices. It surfaces on the wire as `incomplete: true`.
var ErrIncomplete = errors.New("server: cluster result incomplete (shard retries exhausted)")

// ClusterConfig wires a coordinator to its worker replicas. The zero value
// of every field but Workers is usable.
type ClusterConfig struct {
	// Workers is the list of replica base URLs (e.g. "http://w1:8080").
	Workers []string
	// HealthInterval is the per-worker health-check cadence. Failed checks
	// back off exponentially (jittered, capped at 30s) until the replica
	// answers again. 0 selects 2s.
	HealthInterval time.Duration
	// ShardTimeout bounds one shard attempt end to end. 0 selects 30s.
	ShardTimeout time.Duration
	// MaxRetries is how many times a failed shard is reassigned before the
	// exploration returns ErrIncomplete. 0 selects 2; negative disables
	// retries.
	MaxRetries int
	// ShardsPerWorker scales the partition: a stage of N refs splits into
	// min(N, healthyWorkers x ShardsPerWorker) slices, so one slow replica
	// holds back at most 1/ShardsPerWorker of the wall clock. 0 selects 2.
	ShardsPerWorker int
	// HTTPClient overrides the transport (tests inject httptest clients).
	// nil selects a client with sane defaults.
	HTTPClient *http.Client
}

func (c *ClusterConfig) defaults() {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 30 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.ShardsPerWorker <= 0 {
		c.ShardsPerWorker = 2
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
}

// latencyRing keeps the last ringSize shard latencies for the /v1/cluster
// quantiles.
const ringSize = 256

// workerState tracks one replica: health, failure streak, shard counters,
// and a latency ring buffer.
type workerState struct {
	url string

	mu        sync.Mutex
	healthy   bool
	checked   bool // at least one health check completed
	fails     int  // consecutive failed checks
	lastErr   string
	latencies [ringSize]float64 // seconds
	latIdx    int
	latCount  int
	shardsOK  int64
	shardsErr int64
	retries   int64
}

func (w *workerState) noteHealth(ok bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.checked = true
	w.healthy = ok
	if ok {
		w.fails = 0
		w.lastErr = ""
		return
	}
	w.fails++
	if err != nil {
		w.lastErr = err.Error()
	}
}

func (w *workerState) noteShard(dt time.Duration, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.latencies[w.latIdx] = dt.Seconds()
	w.latIdx = (w.latIdx + 1) % ringSize
	if w.latCount < ringSize {
		w.latCount++
	}
	if ok {
		w.shardsOK++
	} else {
		w.shardsErr++
	}
}

func (w *workerState) noteRetry() {
	w.mu.Lock()
	w.retries++
	w.mu.Unlock()
}

// quantiles returns the p50/p90/p99 of the latency ring in seconds.
func (w *workerState) quantiles() (p50, p90, p99 float64) {
	w.mu.Lock()
	lat := append([]float64(nil), w.latencies[:w.latCount]...)
	w.mu.Unlock()
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(lat)
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	return q(0.50), q(0.90), q(0.99)
}

// snapshot returns the wire view of the worker.
func (w *workerState) snapshot() ClusterWorkerDTO {
	p50, p90, p99 := w.quantiles()
	w.mu.Lock()
	defer w.mu.Unlock()
	return ClusterWorkerDTO{
		URL:              w.url,
		Healthy:          w.healthy,
		ConsecutiveFails: w.fails,
		LastError:        w.lastErr,
		ShardsOK:         w.shardsOK,
		ShardsErr:        w.shardsErr,
		Retries:          w.retries,
		LatencyP50MS:     p50 * 1e3,
		LatencyP90MS:     p90 * 1e3,
		LatencyP99MS:     p99 * 1e3,
	}
}

// Cluster is the coordinator side of cluster mode: worker registry, health
// loops, and the shard-dispatching Evaluator the engine runs on.
type Cluster struct {
	cfg     ClusterConfig
	workers []*workerState
	metrics *metrics

	rr     atomic.Uint64 // round-robin cursor for shard assignment
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newCluster(cfg ClusterConfig, m *metrics) *Cluster {
	cfg.defaults()
	c := &Cluster{cfg: cfg, metrics: m, stopCh: make(chan struct{})}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: u})
	}
	return c
}

// start launches one health loop per worker.
func (c *Cluster) start() {
	for _, w := range c.workers {
		c.wg.Add(1)
		go c.healthLoop(w)
	}
}

// stop terminates the health loops and waits for them.
func (c *Cluster) stop() {
	close(c.stopCh)
	c.wg.Wait()
}

// healthLoop probes one worker's /healthz on the configured cadence.
// Consecutive failures back off exponentially — interval x 2^fails, capped
// at 30s — with ±20% jitter so a restarted fleet does not thunder back in
// lockstep.
func (c *Cluster) healthLoop(w *workerState) {
	defer c.wg.Done()
	timer := time.NewTimer(0) // first check immediately
	defer timer.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-timer.C:
		}
		c.checkHealth(w)
		delay := c.cfg.HealthInterval
		w.mu.Lock()
		fails := w.fails
		w.mu.Unlock()
		if fails > 0 {
			shift := fails
			if shift > 5 {
				shift = 5
			}
			delay *= time.Duration(1) << shift
			if delay > 30*time.Second {
				delay = 30 * time.Second
			}
		}
		timer.Reset(jitter(delay))
	}
}

// jitter spreads d by ±20%.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration((rand.Float64()-0.5)*0.4*float64(d))
}

func (c *Cluster) checkHealth(w *workerState) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HealthInterval+2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		w.noteHealth(false, err)
		return
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		w.noteHealth(false, err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A draining worker answers 503: alive, but shedding — route
		// shards elsewhere.
		w.noteHealth(false, fmt.Errorf("healthz returned %d", resp.StatusCode))
		return
	}
	w.noteHealth(true, nil)
}

// healthyCount counts workers currently passing health checks; workers not
// yet probed count as healthy so the first exploration after boot does not
// serialize onto one replica.
func (c *Cluster) healthyCount() int {
	n := 0
	for _, w := range c.workers {
		if w.usable() {
			n++
		}
	}
	return n
}

// usable reports a worker passing health checks or not yet probed.
func (w *workerState) usable() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy || !w.checked
}

// pickWorker returns the next replica in round-robin order, preferring
// healthy (or unprobed) workers and falling back to the full ring when
// none pass — health state may simply be stale, and the shard retry loop
// is the real arbiter.
func (c *Cluster) pickWorker() *workerState {
	n := len(c.workers)
	if n == 0 {
		return nil
	}
	// The modulo runs in uint64 space: converting the cursor to int first
	// can go negative (32-bit int, or a wrapped counter) and index the ring
	// with a negative start.
	start := int((c.rr.Add(1) - 1) % uint64(n))
	for i := 0; i < n; i++ {
		if w := c.workers[(start+i)%n]; w.usable() {
			return w
		}
	}
	return c.workers[start]
}

// snapshot returns the wire view of every worker.
func (c *Cluster) snapshot() []ClusterWorkerDTO {
	out := make([]ClusterWorkerDTO, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, w.snapshot())
	}
	return out
}

// healthGauges returns url -> 0/1 for the ivoryd_worker_healthy gauge.
func (c *Cluster) healthGauges() map[string]bool {
	out := make(map[string]bool, len(c.workers))
	for _, w := range c.workers {
		w.mu.Lock()
		out[w.url] = w.healthy
		w.mu.Unlock()
	}
	return out
}

// shardChunk is one contiguous slice of a stage's ref list.
type shardChunk struct{ lo, hi int }

// splitChunks partitions n refs into at most parts contiguous,
// near-balanced slices.
func splitChunks(n, parts int) []shardChunk {
	if parts > n {
		parts = n
	}
	if parts < 1 {
		parts = 1
	}
	out := make([]shardChunk, 0, parts)
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + (n-lo)/(parts-i)
		out = append(out, shardChunk{lo: lo, hi: hi})
		lo = hi
	}
	return out
}

// shardError classifies a failed shard attempt. Retryable failures
// (timeouts, 5xx, 429, transport errors) are reassigned to the next
// replica. Fatal ones (409 version skew, 4xx invalid slices) mean the
// fleet itself is broken or mismatched, so the exploration fails outright
// instead of degrading to a benign-looking ErrIncomplete partial.
type shardError struct {
	err   error
	fatal bool
}

func (e *shardError) Error() string { return e.err.Error() }
func (e *shardError) Unwrap() error { return e.err }

// evaluator returns the core.Evaluator that dispatches each evaluation
// batch over the cluster. rangeMode marks the exhaustive path, whose
// single batch is the full canonical enumeration, so positional index ==
// enumeration index and slices travel as [lo, hi) index ranges; adaptive
// stages ship their ref lists explicitly. The returned outcomes slice has
// zero-valued slots for refs whose shard was lost — exactly the shape a
// cancelled local run produces — and the error wraps ErrIncomplete when
// retries were exhausted. Fatal shard failures (version skew, invalid
// slices) propagate as-is: a broken fleet is a hard error, not a benign
// incomplete partial.
func (c *Cluster) evaluator(spec core.Spec, rangeMode bool) core.Evaluator {
	// Every shard request carries the wire spec, the identity the worker's
	// 409 guard checks, and the engine-precision area budget.
	base := ShardRequest{
		Spec:      SpecDTOFromSpec(spec),
		SpecHash:  SpecHash(spec),
		AreaM2:    spec.AreaMax,
		TimeoutMS: int(c.cfg.ShardTimeout / time.Millisecond),
	}
	return func(ctx context.Context, refs []core.ConfigRef, done func(int, *core.RefOutcome)) ([]core.RefOutcome, error) {
		outs := make([]core.RefOutcome, len(refs))
		if len(refs) == 0 {
			return outs, nil
		}
		chunks := splitChunks(len(refs), c.healthyCount()*c.cfg.ShardsPerWorker)
		errs := make([]error, len(chunks))
		var wg sync.WaitGroup
		for i, ch := range chunks {
			wg.Add(1)
			go func(i int, ch shardChunk) {
				defer wg.Done()
				errs[i] = c.runShard(ctx, base, rangeMode, refs, ch, outs, done)
			}(i, ch)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return outs, err
		}
		var lost error
		for _, err := range errs {
			if se := (*shardError)(nil); errors.As(err, &se) && se.fatal {
				return outs, err
			}
			if lost == nil {
				lost = err
			}
		}
		if lost != nil {
			return outs, fmt.Errorf("%w: %v", ErrIncomplete, lost)
		}
		return outs, nil
	}
}

// runShard evaluates one chunk with retry/reassignment: each attempt posts
// the whole slice to the next replica, and only a complete response is
// merged — at most one attempt is in flight per chunk, so a slice can
// never be merged twice.
func (c *Cluster) runShard(ctx context.Context, base ShardRequest, rangeMode bool,
	refs []core.ConfigRef, ch shardChunk, outs []core.RefOutcome, done func(int, *core.RefOutcome)) error {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w := c.pickWorker()
		if w == nil {
			return errors.New("server: cluster has no workers")
		}
		if attempt > 0 {
			w.noteRetry()
			c.metrics.shardRetries.inc(workerLabel(w.url))
			// Jittered linear backoff before re-dispatch; bounded so a
			// short request deadline still gets its retries.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(jitter(50 * time.Millisecond * time.Duration(attempt))):
			}
		}
		c.metrics.shardsDispatched.inc(workerLabel(w.url))
		start := time.Now()
		resp, err := c.postShard(ctx, w, base, rangeMode, refs, ch)
		w.noteShard(time.Since(start), err == nil)
		if err == nil {
			if len(resp.Outcomes) != ch.hi-ch.lo {
				// A short response would tear the positional merge.
				lastErr = fmt.Errorf("worker %s returned %d outcomes for a %d-ref slice", w.url, len(resp.Outcomes), ch.hi-ch.lo)
				continue
			}
			for i, o := range resp.Outcomes {
				outs[ch.lo+i] = o.toRefOutcome()
				done(ch.lo+i, &outs[ch.lo+i])
			}
			return nil
		}
		if se := (*shardError)(nil); !errors.As(err, &se) {
			// Version skew / invalid slice: reassignment cannot help, and
			// the exploration must fail hard rather than degrade.
			return &shardError{err: err, fatal: true}
		}
		lastErr = err
	}
	return lastErr
}

// postShard runs one shard attempt against one worker.
func (c *Cluster) postShard(ctx context.Context, w *workerState, req ShardRequest,
	rangeMode bool, refs []core.ConfigRef, ch shardChunk) (*ShardResponse, error) {
	req.Lo, req.Hi = ch.lo, ch.hi
	if rangeMode {
		req.Total = len(refs)
	} else {
		req.Refs = refs[ch.lo:ch.hi]
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, w.url+"/v1/shard/explore", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return nil, &shardError{err: err}
	}
	defer func() {
		_, _ = io.Copy(io.Discard, hresp.Body)
		_ = hresp.Body.Close()
	}()
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		err := fmt.Errorf("worker %s: shard [%d,%d) returned %d: %s", w.url, ch.lo, ch.hi, hresp.StatusCode, bytes.TrimSpace(msg))
		// 5xx (worker dying/draining/timing out) and 429 (queue full) are
		// transient; 409 and the rest of 4xx mean the request itself is
		// wrong for this fleet.
		if hresp.StatusCode >= 500 || hresp.StatusCode == http.StatusTooManyRequests {
			return nil, &shardError{err: err}
		}
		return nil, err
	}
	var out ShardResponse
	if err := json.NewDecoder(hresp.Body).Decode(&out); err != nil {
		return nil, &shardError{err: fmt.Errorf("worker %s: bad shard response: %v", w.url, err)}
	}
	return &out, nil
}

// clusterExplore is the coordinator's engine seam: identical inputs and
// outputs to core.Explore, evaluation fanned over the cluster. The
// admission path (cache, singleflight, queue) is untouched — a cache hit
// short-circuits before any shard is dispatched.
func (s *Server) clusterExplore(spec core.Spec) (*core.Result, error) {
	return core.ExploreWith(spec, s.cluster.evaluator(spec, spec.Search == core.SearchExhaustive))
}
