package server

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ivory/internal/workload"
)

// Cluster mode: a coordinator ivoryd routes each exploration whole to one
// worker replica. The owner of a spec is the first worker in the
// rendezvous order of its spec hash, so repeats of a spec land on the
// worker that already caches its result, and adding or losing a replica
// moves only the specs that replica owned. The coordinator forwards the
// client's original body bytes to the owner's same route and relays the
// worker's status, headers and body verbatim (streams flushed per chunk):
// the worker normalizes the very DTO the client sent, so the answer is the
// single-node answer byte for byte.
//
// Failover: the rest of the rendezvous order is walked only on transport
// errors, 5xx and 429, and only before any byte reached the client. Any
// other status (a 400, a 422 infeasible spec) is the request's own answer
// and is relayed once. When every worker fails the coordinator answers 503
// with Retry-After.

// ClusterConfig wires a coordinator to its worker replicas. The zero value
// of every field but Workers is usable.
type ClusterConfig struct {
	// Workers is the list of replica base URLs (e.g. "http://w1:8080").
	Workers []string
	// HealthInterval is the per-worker health-check cadence. Failed checks
	// back off exponentially (jittered, capped at 30s) until the replica
	// answers again. 0 selects 2s.
	HealthInterval time.Duration
}

// latencyRing keeps the last ringSize forward latencies for the
// /v1/cluster quantiles.
const ringSize = 256

// workerState tracks one replica: health, failure streak, forward
// counters, and a latency ring buffer.
type workerState struct {
	url string
	// seed is the FNV-1a digest of url, the rendezvous hash's per-worker
	// starting state.
	seed uint64

	mu        sync.Mutex
	healthy   bool
	checked   bool // at least one health check completed
	fails     int  // consecutive failed checks
	lastErr   string
	latencies [ringSize]float64 // seconds
	latIdx    int
	latCount  int
	served    int64
	failed    int64
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

// noteForward records one forwarded request: its latency to the last
// relayed byte and whether the worker answered it.
func (w *workerState) noteForward(dt time.Duration, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.latencies[w.latIdx] = dt.Seconds()
	w.latIdx = (w.latIdx + 1) % ringSize
	if w.latCount < ringSize {
		w.latCount++
	}
	if ok {
		w.served++
	} else {
		w.failed++
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

// snapshot returns the wire view of the worker. The shard-named fields
// count whole forwarded requests.
func (w *workerState) snapshot() ClusterWorkerDTO {
	p50, p90, p99 := w.quantiles()
	w.mu.Lock()
	defer w.mu.Unlock()
	return ClusterWorkerDTO{
		URL:              w.url,
		Healthy:          w.healthy,
		ConsecutiveFails: w.fails,
		LastError:        w.lastErr,
		ShardsOK:         w.served,
		ShardsErr:        w.failed,
		Retries:          w.retries,
		LatencyP50MS:     p50 * 1e3,
		LatencyP90MS:     p90 * 1e3,
		LatencyP99MS:     p99 * 1e3,
	}
}

// usable reports a worker passing health checks or not yet probed.
func (w *workerState) usable() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy || !w.checked
}

// Cluster is the coordinator side of cluster mode: the worker registry,
// its health loops, and the request router.
type Cluster struct {
	cfg     ClusterConfig
	workers []*workerState
	metrics *metrics
	client  *http.Client

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newCluster(cfg ClusterConfig, m *metrics) *Cluster {
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	// Concurrent relays to one worker reuse their connections instead of
	// redialling past the default two idle ones per host.
	t.MaxIdleConnsPerHost = 64
	c := &Cluster{cfg: cfg, metrics: m, client: &http.Client{Transport: t}, stopCh: make(chan struct{})}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{url: u, seed: workload.FNV1aString(workload.FNVOffset64, u)})
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
	resp, err := c.client.Do(req)
	if err != nil {
		w.noteHealth(false, err)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A draining worker answers 503: alive, but shedding — route
		// requests elsewhere.
		w.noteHealth(false, fmt.Errorf("healthz returned %d", resp.StatusCode))
		return
	}
	w.noteHealth(true, nil)
}

// order ranks the workers for one spec hash: usable workers first, each
// group by descending rendezvous score FNV-1a(url, hash). A worker's
// score does not depend on the others, so the owner of a spec changes
// only when the owner itself leaves or turns unusable. Unusable workers
// stay at the tail: health state may be stale, and failover is the real
// arbiter.
func (c *Cluster) order(hash string) []*workerState {
	type ranked struct {
		w      *workerState
		usable bool
		score  uint64
	}
	rs := make([]ranked, len(c.workers))
	for i, w := range c.workers {
		rs[i] = ranked{w, w.usable(), workload.FNV1aString(w.seed, hash)}
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if a.usable != b.usable {
			if a.usable {
				return -1
			}
			return 1
		}
		return cmp.Compare(b.score, a.score)
	})
	out := make([]*workerState, len(rs))
	for i, r := range rs {
		out[i] = r.w
	}
	return out
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

// failsOver reports a worker answer the next worker may do better on: the
// worker is dying, draining or timing out (5xx) or its queue is full (429).
func failsOver(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// forward serves one compute request on a coordinator: it posts body, the
// client's original bytes, to the route of the first worker in the
// rendezvous order of hash that answers, and relays that answer. The
// request joins the drain like a compute job; the drain deadline aborts
// it.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, rt *route, hash string, body []byte) {
	if s.draining.Load() {
		s.fail(w, rt, errDraining, http.StatusServiceUnavailable)
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.baseCtx, cancel)()

	c := s.cluster
	var lastErr error
	for i, wk := range c.order(hash) {
		if i > 0 {
			wk.noteRetry()
			c.metrics.failovers.inc(workerLabel(wk.url))
		}
		c.metrics.forwards.inc(workerLabel(wk.url))
		start := time.Now()
		resp, err := c.post(ctx, wk.url+r.URL.Path, r.Header.Get("Content-Type"), body)
		if err == nil && failsOver(resp.StatusCode) {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			_ = resp.Body.Close()
			err = fmt.Errorf("worker %s returned %d: %s", wk.url, resp.StatusCode, bytes.TrimSpace(msg))
		}
		if err != nil {
			if ctx.Err() != nil {
				// The client left or the drain window closed: not the
				// worker's failure, and no one to fail over for.
				break
			}
			wk.noteForward(time.Since(start), false)
			lastErr = err
			continue
		}
		relay(w, resp)
		_ = resp.Body.Close()
		wk.noteForward(time.Since(start), true)
		return
	}
	switch {
	case s.baseCtx.Err() != nil:
		s.fail(w, rt, errDraining, http.StatusServiceUnavailable)
	case r.Context().Err() != nil:
		// The client left; nobody reads an answer.
	default:
		s.writeError(w, http.StatusServiceUnavailable, fmt.Sprintf("no cluster worker could serve the %s: %v", rt.noun, lastErr))
	}
}

// post sends one forwarded request body to url.
func (c *Cluster) post(ctx context.Context, url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.client.Do(req)
}

// relay copies a worker's answer to the client: status, end-to-end
// headers and body. An event stream is flushed per chunk, so its events
// leave the coordinator as the worker emits them.
func relay(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		if k != "Connection" && k != "Keep-Alive" {
			h[k] = vs
		}
	}
	w.WriteHeader(resp.StatusCode)
	var dst io.Writer = w
	if f, ok := w.(http.Flusher); ok && strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		dst = flushWriter{w, f}
	}
	// The status is committed; a copy failure means the client or the
	// worker went away mid-body, and there is nobody left to tell.
	_, _ = io.Copy(dst, resp.Body)
}

// flushWriter flushes after every write.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.f.Flush()
	return n, err
}

// relayJob answers a job poll the coordinator's own registry missed: the
// job was an exploration submitted through the router, so the worker that
// ran it holds the record. Workers are asked in turn; the first 200 is
// relayed. It reports whether an answer was written.
func (s *Server) relayJob(w http.ResponseWriter, r *http.Request) bool {
	for _, wk := range s.cluster.workers {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, wk.url+r.URL.Path, nil)
		if err != nil {
			return false
		}
		resp, err := s.cluster.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			relay(w, resp)
			_ = resp.Body.Close()
			return true
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}
	return false
}
