package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"ivory/internal/core"
)

// maxBodyBytes bounds request bodies; specs are a few hundred bytes.
const maxBodyBytes = 1 << 20

// Handler returns the ivoryd route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explore", compute(s, exploreRoute, func(req *ExploreRequest) (*job, error) { return s.exploreJob(req, nil) }))
	mux.HandleFunc("POST /v1/explore/stream", compute(s, streamRoute, s.streamJob))
	mux.HandleFunc("POST /v1/transient", compute(s, transientRoute, s.transientJob))
	mux.HandleFunc("POST /v1/hybrid", compute(s, hybridRoute, s.hybridJob))
	mux.HandleFunc("GET /v1/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrument("jobs", s.handleJob))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return mux
}

// statusWriter captures the response code for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so SSE events leave the process
// as they are produced instead of sitting in the buffer until the run ends.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the request counter and latency
// histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.metrics.requests.inc(endpointCode(endpoint, sw.code))
		s.metrics.latency.observe(endpointLabel(endpoint), time.Since(start).Seconds())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The response is already committed; an encode failure here means the
	// client went away, which the request counter has no use for.
	_ = enc.Encode(v)
}

// writeError renders the uniform error body. 429/503 responses carry a
// Retry-After hint derived from the observed queue drain rate
// (Server.retryAfterSeconds): average job wall time scaled by the work
// queued ahead, bounded to [1, 60] seconds.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	resp := ErrorResponse{Error: msg}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		resp.RetryAfterS = retry
	}
	writeJSON(w, code, resp)
}

// The normalize steps of the compute routes (see pipeline.go). Each turns
// a decoded request into the engine input its job runs and hashes that
// input, and nothing else, into the key.

// exploreJob normalizes an exploration; hook, when non-nil, attaches
// per-request telemetry callbacks to the run (streams).
func (s *Server) exploreJob(req *ExploreRequest, hook func(*core.Spec)) (*job, error) {
	norm, err := normalizeSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	run := func(ctx context.Context) (any, error) {
		sp := norm
		sp.Context, sp.Workers = ctx, s.cfg.EngineWorkers
		if hook != nil {
			hook(&sp)
		}
		res, err := s.explore(sp)
		// A ranked partial (deadline, drain) ships with its error.
		interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if err != nil && !(interrupted && res != nil && len(res.Candidates) > 0) {
			return nil, err
		}
		s.metrics.notePruned(res.Stats.PrunedBound)
		return ExploreResponseFromResult(res, err), err
	}
	return &job{
		key:       SpecHash(norm),
		run:       run,
		view:      func(v any) any { return v.(*ExploreResponse).Trimmed(req.Top) },
		timeoutMS: req.TimeoutMS,
		async:     req.Async,
	}, nil
}

func (s *Server) transientJob(req *TransientRequest) (*job, error) {
	if req.TUS < 0 || req.DtNS < 0 {
		return nil, errors.New("t_us and dt_ns must be >= 0")
	}
	opts := req.Options(s.cfg.EngineWorkers)
	key := transientKey(opts)
	run := func(ctx context.Context) (any, error) {
		res, err := s.transient(ctx, opts)
		if err != nil {
			return nil, err
		}
		return TransientResponseFromResult(key, res), nil
	}
	return &job{key: key, run: run, timeoutMS: req.TimeoutMS, async: req.Async}, nil
}

func (s *Server) hybridJob(req *HybridRequest) (*job, error) {
	spec, err := req.ToSpec()
	if err != nil {
		return nil, err
	}
	key := hybridKey(spec)
	// Retain the full rankable view once; every Top trims from it.
	spec.Workers, spec.Top = s.cfg.EngineWorkers, hybridRetain
	run := func(ctx context.Context) (any, error) {
		sp := spec
		sp.Context = ctx
		res, err := s.hybrid(sp)
		if err != nil {
			return nil, err
		}
		s.metrics.noteHybrid(res.Stats)
		return HybridResponseFromResult(key, res), nil
	}
	return &job{
		key:       key,
		run:       run,
		view:      func(v any) any { return v.(*HybridResponse).Trimmed(req.Top) },
		timeoutMS: req.TimeoutMS,
		async:     req.Async,
	}, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	// 404 covers three cases with one answer: an id that never existed, a
	// finished record past the retention TTL, and a record evicted
	// finished-first under the JobHistory cap. Clients must treat job ids
	// as expiring handles, not durable names. A coordinator holds only its
	// own transient and hybrid records; its workers hold the explorations.
	rec, ok := s.jobs.get(r.PathValue("id"))
	if !ok && s.cluster != nil && s.relayJob(w, r) {
		return
	}
	if !ok {
		s.writeError(w, http.StatusNotFound, "no such job (records expire after the retention TTL and are evicted under the history cap)")
		return
	}
	writeJSON(w, http.StatusOK, rec.snapshot())
}

// healthBody is the /healthz response.
type healthBody struct {
	Status     string `json:"status"`
	QueueDepth int    `json:"queue_depth"`
	Running    int    `json:"running"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := healthBody{Status: "ok", QueueDepth: s.pool.Depth(), Running: s.pool.Running()}
	code := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, body)
}

// handleCluster reports the replica's cluster role and, on a coordinator,
// per-worker health, forward latency quantiles, and failover counters.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	resp := ClusterResponse{Role: s.cfg.Role}
	if s.cluster != nil {
		resp.Workers = s.cluster.snapshot()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.write(w, s.gauges())
}
