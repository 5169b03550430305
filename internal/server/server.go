package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ivory/internal/core"
	"ivory/internal/experiments"
	"ivory/internal/parallel"
	"ivory/internal/soc"
)

// Config sizes the serving subsystem. The zero value is usable: every
// field has a production-shaped default.
type Config struct {
	// Workers is the number of jobs executing concurrently (the pool
	// width). Each job additionally fans out EngineWorkers goroutines
	// inside the engine, so total compute parallelism is roughly
	// Workers x EngineWorkers; the defaults keep that near NumCPU.
	// 0 selects 2 (or 1 on a single-core box).
	Workers int
	// QueueDepth bounds jobs accepted but not yet running; a full queue
	// sheds load with 429 + Retry-After. 0 selects 16.
	QueueDepth int
	// EngineWorkers is the per-job engine worker count (core.Spec.Workers /
	// TransientOptions.Workers). 0 selects NumCPU / Workers, floored at 1.
	EngineWorkers int
	// CacheEntries bounds the LRU result cache. 0 selects 128; negative
	// disables caching.
	CacheEntries int
	// RequestTimeout is the per-job compute deadline (requests may lower
	// it via timeout_ms, never raise it). 0 selects 60s.
	RequestTimeout time.Duration
	// JobHistory bounds retained async job records. 0 selects 256.
	JobHistory int
	// JobTTL expires finished async job records this long after they
	// complete; polling an expired id returns 404. 0 selects 15m; negative
	// disables TTL expiry (the JobHistory cap still applies).
	JobTTL time.Duration
	// Role names this replica's cluster role for /v1/cluster: "single"
	// (default), "worker" (serves the shard API for a coordinator), or
	// "coordinator" (implied by a non-nil Cluster). Every role serves the
	// full route table; the role is reporting, the wiring is Cluster.
	Role string
	// Cluster, when non-nil with at least one worker URL, turns this
	// replica into a coordinator: explorations fan their evaluation batches
	// out to the worker replicas over the shard API instead of the local
	// pool, with bit-identical ranked results (see cluster.go).
	Cluster *ClusterConfig
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = 2
		if runtime.NumCPU() < 2 {
			c.Workers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.NumCPU() / c.Workers
		if c.EngineWorkers < 1 {
			c.EngineWorkers = 1
		}
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 256
	}
	if c.JobTTL == 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.Role == "" {
		c.Role = "single"
		if c.Cluster != nil && len(c.Cluster.Workers) > 0 {
			c.Role = "coordinator"
		}
	}
}

// ErrBusy is returned (as HTTP 429) when the job queue is full.
var ErrBusy = errors.New("server: job queue full")

// errDraining is returned (as HTTP 503) once shutdown has begun.
var errDraining = errors.New("server: draining")

// Server is the ivoryd serving core: admission control, the worker pool,
// the result cache, singleflight coalescing, async job records, metrics,
// and drain. Build with New, mount Handler on any http.Server or call
// Serve, stop with Shutdown.
type Server struct {
	cfg      Config
	pool     *parallel.Pool
	cache    *resultCache
	flights  *flightGroup
	jobs     *jobRegistry
	metrics  *metrics
	drainEst *drainEstimator

	// baseCtx parents every job context; baseCancel fires when the drain
	// window closes so in-flight engines return their ranked partials.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining atomic.Bool
	inflight sync.WaitGroup
	panics   atomic.Int64

	httpMu  sync.Mutex
	httpSrv *http.Server

	// cluster is non-nil on a coordinator; its evaluator replaces the
	// engine's local pool while everything upstream (cache, singleflight,
	// queue) stays identical.
	cluster *Cluster

	// Engine seams: production wiring in New, overridden in tests to pin
	// queue/coalescing behavior without real compute.
	explore   func(core.Spec) (*core.Result, error)
	transient func(context.Context, experiments.TransientOptions) (*experiments.Fig10Result, error)
	hybrid    func(soc.SweepSpec) (*soc.SweepResult, error)
}

// New builds a Server from the config (zero value fine; see Config).
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:       cfg,
		cache:     newResultCache(cfg.CacheEntries),
		flights:   newFlightGroup(),
		jobs:      newJobRegistry(cfg.JobHistory, cfg.JobTTL),
		metrics:   newMetrics(),
		drainEst:  &drainEstimator{},
		explore:   core.Explore,
		transient: experiments.Fig10Run,
		hybrid:    soc.Sweep,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	// The pool-level panic hook is a backstop; the per-job wrapper in
	// execute already recovers and resolves the flight.
	s.pool = parallel.NewPool(cfg.Workers, cfg.QueueDepth, func(*parallel.PanicError) {
		s.panics.Add(1)
	})
	if cfg.Cluster != nil && len(cfg.Cluster.Workers) > 0 {
		s.cluster = newCluster(*cfg.Cluster, s.metrics)
		s.explore = s.clusterExplore
		s.cluster.start()
	}
	return s
}

// drainEstimator keeps an exponentially weighted moving average of
// completed job wall times. The 429/503 Retry-After hint is derived from
// it: how long until a queue slot plausibly frees up at the observed
// drain rate, rather than a constant guess. Zero means no job has
// completed yet.
type drainEstimator struct {
	mu  sync.Mutex
	avg time.Duration
}

func (d *drainEstimator) note(dt time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.avg == 0 {
		d.avg = dt
		return
	}
	// α = 1/4: a few recent jobs dominate, one outlier does not.
	d.avg += (dt - d.avg) / 4
}

func (d *drainEstimator) estimate() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.avg
}

// retryAfterSeconds converts the observed drain rate into the Retry-After
// hint: the queue must drain depth+1 jobs across the worker pool before a
// shed request can land. Bounded to [1, 60] — never so low a client
// hot-loops, never so high one transient spike parks clients for minutes.
func (s *Server) retryAfterSeconds() int {
	wait := s.drainEst.estimate() * time.Duration(s.pool.Depth()+1) / time.Duration(s.cfg.Workers)
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// jobFunc computes one response. A non-nil err alongside a non-nil val is
// a ranked partial: delivered, never cached.
type jobFunc func(ctx context.Context) (val any, err error)

// execute is the single admission path for every compute route, sync,
// async and streamed: result cache (cacheable routes only), then
// singleflight join, then bounded queue submission. The returned flight is
// already resolved on a cache hit. ErrBusy means the queue shed the job;
// errDraining means admission is closed.
func (s *Server) execute(rt *route, hash string, timeout time.Duration, fn jobFunc) (*flight, error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if rt.cacheable {
		if v, ok := s.cache.Get(hash); ok {
			f := &flight{done: make(chan struct{}), val: v}
			close(f.done)
			return f, nil
		}
	}
	f, leader := s.flights.join(hash)
	if !leader {
		return f, nil
	}
	s.inflight.Add(1)
	submitted := s.pool.TrySubmit(func() {
		defer s.inflight.Done()
		start := time.Now()
		defer func() { s.drainEst.note(time.Since(start)) }()
		ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
		defer cancel()
		var (
			val any
			err error
		)
		// Contain job panics here so the flight always resolves; a waiter
		// blocked on a flight whose job died would otherwise hang forever.
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.panics.Add(1)
					err = fmt.Errorf("server: %s job panicked: %v", rt.name, r)
				}
			}()
			val, err = fn(ctx)
		}()
		if err == nil && rt.cacheable {
			s.cache.Put(hash, val)
		}
		s.flights.finish(hash, f, val, err)
	})
	if !submitted {
		s.inflight.Done()
		s.metrics.jobsRejected.inc(endpointLabel(rt.name))
		s.flights.abort(hash, f, ErrBusy)
		return nil, ErrBusy
	}
	s.metrics.jobsSubmitted.inc(endpointLabel(rt.name))
	return f, nil
}

// timeoutFor clamps a request's timeout_ms under the server deadline.
func (s *Server) timeoutFor(timeoutMS int) time.Duration {
	if timeoutMS <= 0 {
		return s.cfg.RequestTimeout
	}
	d := time.Duration(timeoutMS) * time.Millisecond
	if d > s.cfg.RequestTimeout {
		return s.cfg.RequestTimeout
	}
	return d
}

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.Serve(l)
}

// Shutdown drains and stops the server:
//
//  1. admission closes — /healthz flips to 503 "draining", new jobs and
//     submissions are refused;
//  2. in-flight jobs drain to completion within ctx's deadline;
//  3. if the deadline fires first, the base context is cancelled so every
//     running engine returns promptly — explorations with their ranked
//     partial results, which still resolve their waiting requests;
//  4. the pool and the HTTP listener shut down.
//
// Shutdown is safe to call once; it returns ctx.Err() when the drain
// window closed early, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.cluster != nil {
		// Health loops stop immediately; in-flight shard dispatches drain
		// with their parent jobs below.
		s.cluster.stop()
	}
	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		// Cancel compute; the engines poll their contexts inside the hot
		// loops (PR3/PR4 contract), so this wait is prompt.
		s.baseCancel()
		<-drained
	}
	s.baseCancel()
	s.pool.Close()
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		// Give connection teardown a short grace, bounded by the caller's
		// ctx: once the caller gives up, teardown must not keep Shutdown
		// blocked for the full grace period.
		hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		if herr := srv.Shutdown(hctx); err == nil {
			err = herr
		}
	}
	return err
}

// gauges assembles the point-in-time snapshot for /metrics.
func (s *Server) gauges() gaugeSnapshot {
	hits, misses := s.cache.Stats()
	g := gaugeSnapshot{
		queueDepth:   s.pool.Depth(),
		running:      s.pool.Running(),
		inflight:     s.flights.Inflight(),
		draining:     s.draining.Load(),
		cacheEntries: s.cache.Len(),
		cacheHits:    hits,
		cacheMisses:  misses,
		coalesced:    s.flights.Coalesced(),
		jobsTracked:  s.jobs.len(),
	}
	if s.cluster != nil {
		g.workerHealth = s.cluster.healthGauges()
	}
	return g
}
