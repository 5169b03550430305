package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ivory/internal/pds"
	"ivory/internal/soc"
	"ivory/internal/topology"
)

// The metrics layer is a deliberately tiny, stdlib-only subset of a
// Prometheus client: labeled counters, one labeled histogram, and gauges
// computed at scrape time. Exposition follows the text format
// (https://prometheus.io/docs/instrumenting/exposition_formats/) closely
// enough for promtool and the scrape-and-parse test.

// counterVec is a monotonically increasing counter family keyed by a
// pre-rendered label string (`endpoint="explore",code="200"`).
type counterVec struct {
	mu sync.Mutex
	m  map[string]int64
}

func newCounterVec() *counterVec { return &counterVec{m: map[string]int64{}} }

func (c *counterVec) inc(labels string) { c.add(labels, 1) }

// add counts n more events; n <= 0 leaves the family untouched, so a
// label appears once something actually happened.
func (c *counterVec) add(labels string, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.m[labels] += n
	c.mu.Unlock()
}

func (c *counterVec) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// latencyBuckets are the request-duration histogram bounds in seconds,
// spanning cache hits (sub-millisecond) to long sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 15, 60}

// histogramVec is a cumulative histogram family keyed by endpoint.
type histogramVec struct {
	mu sync.Mutex
	m  map[string]*histogram
}

type histogram struct {
	counts []int64 // per latencyBuckets bound
	sum    float64
	count  int64
}

func newHistogramVec() *histogramVec { return &histogramVec{m: map[string]*histogram{}} }

func (h *histogramVec) observe(label string, v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	hist, ok := h.m[label]
	if !ok {
		hist = &histogram{counts: make([]int64, len(latencyBuckets))}
		h.m[label] = hist
	}
	for i, b := range latencyBuckets {
		if v <= b {
			hist.counts[i]++
		}
	}
	hist.sum += v
	hist.count++
}

// metrics bundles the server's instrument families. Gauges (queue depth,
// draining, cache ratio, engine cache counters) are not stored — they are
// read from their sources at scrape time.
type metrics struct {
	// requests counts finished HTTP requests by endpoint and status code.
	requests *counterVec
	// latency observes request wall time by endpoint.
	latency *histogramVec
	// jobsSubmitted/jobsRejected count queue admissions vs 429 sheds.
	jobsSubmitted *counterVec
	jobsRejected  *counterVec
	// candidatesPruned counts configurations the adaptive search skipped
	// without sizing, by pruning strategy (bound is the only one).
	candidatesPruned *counterVec
	// hybridCandidates counts rail assignments hybrid sweeps examined, by
	// outcome (ranked | rejected_infeasible | rejected_area).
	hybridCandidates *counterVec
	// forwards/failovers count requests a coordinator forwarded whole,
	// and failovers, by worker URL (exposed under the shard-era names).
	forwards  *counterVec
	failovers *counterVec
}

func newMetrics() *metrics {
	return &metrics{
		requests:         newCounterVec(),
		latency:          newHistogramVec(),
		jobsSubmitted:    newCounterVec(),
		jobsRejected:     newCounterVec(),
		candidatesPruned: newCounterVec(),
		hybridCandidates: newCounterVec(),
		forwards:         newCounterVec(),
		failovers:        newCounterVec(),
	}
}

// notePruned folds one finished exploration's pruning telemetry into the
// counter. Cache hits do not recount: the counter tracks configurations
// actually skipped by compute jobs.
func (m *metrics) notePruned(bound int) {
	m.candidatesPruned.add(`strategy="bound"`, int64(bound))
}

// noteHybrid folds one finished hybrid sweep's enumeration telemetry into
// the counter. Cache hits do not recount: the counter tracks assignments
// actually examined by compute jobs.
func (m *metrics) noteHybrid(s soc.SweepStats) {
	m.hybridCandidates.add(`outcome="ranked"`, int64(s.Ranked))
	m.hybridCandidates.add(`outcome="rejected_infeasible"`, int64(s.RejectedInfeasible))
	m.hybridCandidates.add(`outcome="rejected_area"`, int64(s.RejectedArea))
}

// endpointCode renders the label pair for the request counter.
func endpointCode(endpoint string, code int) string {
	return `endpoint="` + endpoint + `",code="` + strconv.Itoa(code) + `"`
}

func endpointLabel(endpoint string) string { return `endpoint="` + endpoint + `"` }

// workerLabel renders the label for the per-worker forward counters. URLs
// contain no quotes or backslashes in practice; escape defensively anyway.
func workerLabel(url string) string {
	return `worker="` + strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(url) + `"`
}

// gaugeSnapshot carries the point-in-time values the server computes at
// scrape time.
type gaugeSnapshot struct {
	queueDepth   int
	running      int
	inflight     int
	draining     bool
	cacheEntries int
	cacheHits    int64
	cacheMisses  int64
	coalesced    int64
	jobsTracked  int
	// workerHealth maps worker URL -> passing health checks; nil on
	// non-coordinator replicas (the gauge family is then omitted).
	workerHealth map[string]bool
}

func writeCounterFamily(w io.Writer, name, help string, snap map[string]int64) {
	_, _ = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k == "" {
			_, _ = fmt.Fprintf(w, "%s %d\n", name, snap[k])
		} else {
			_, _ = fmt.Fprintf(w, "%s{%s} %d\n", name, k, snap[k])
		}
	}
}

func writeGauge(w io.Writer, name, help string, v float64) {
	_, _ = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		name, help, name, name, strconv.FormatFloat(v, 'g', -1, 64))
}

func writeCounter(w io.Writer, name, help string, v int64) {
	_, _ = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// write renders the full exposition: server instruments, point-in-time
// gauges, and the engine-level cache/solver counters (package-wide
// lifetime totals, the same counters core.Stats diffs per run).
func (m *metrics) write(w io.Writer, g gaugeSnapshot) {
	writeCounterFamily(w, "ivoryd_requests_total", "Finished HTTP requests by endpoint and status code.", m.requests.snapshot())
	writeCounterFamily(w, "ivoryd_jobs_submitted_total", "Jobs admitted to the compute queue by endpoint.", m.jobsSubmitted.snapshot())
	writeCounterFamily(w, "ivoryd_jobs_rejected_total", "Jobs shed with 429 because the queue was full, by endpoint.", m.jobsRejected.snapshot())
	writeCounterFamily(w, "ivoryd_candidates_pruned_total", "Configurations the adaptive search skipped without sizing, by strategy.", m.candidatesPruned.snapshot())
	writeCounterFamily(w, "ivoryd_hybrid_candidates_total", "Rail assignments hybrid sweeps examined, by outcome.", m.hybridCandidates.snapshot())
	writeCounterFamily(w, "ivoryd_shards_dispatched_total", "Requests a coordinator forwarded whole to cluster workers, failovers included, by worker URL.", m.forwards.snapshot())
	writeCounterFamily(w, "ivoryd_shard_retries_total", "Failovers to the next worker in rendezvous order, by the worker failed over to.", m.failovers.snapshot())

	// Histogram family.
	name := "ivoryd_request_duration_seconds"
	_, _ = fmt.Fprintf(w, "# HELP %s Request wall time by endpoint.\n# TYPE %s histogram\n", name, name)
	m.latency.mu.Lock()
	labels := make([]string, 0, len(m.latency.m))
	for k := range m.latency.m {
		labels = append(labels, k)
	}
	sort.Strings(labels)
	for _, label := range labels {
		h := m.latency.m[label]
		for i, b := range latencyBuckets {
			_, _ = fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", name, label,
				strconv.FormatFloat(b, 'g', -1, 64), h.counts[i])
		}
		_, _ = fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, h.count)
		_, _ = fmt.Fprintf(w, "%s_sum{%s} %s\n", name, label, strconv.FormatFloat(h.sum, 'g', -1, 64))
		_, _ = fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, h.count)
	}
	m.latency.mu.Unlock()

	writeGauge(w, "ivoryd_queue_depth", "Jobs accepted but not yet running.", float64(g.queueDepth))
	writeGauge(w, "ivoryd_jobs_running", "Jobs currently executing on workers.", float64(g.running))
	writeGauge(w, "ivoryd_flights_inflight", "Distinct computations in flight (after coalescing).", float64(g.inflight))
	draining := 0.0
	if g.draining {
		draining = 1
	}
	writeGauge(w, "ivoryd_draining", "1 while the server is draining for shutdown.", draining)
	writeGauge(w, "ivoryd_async_jobs_tracked", "Async job records currently retained.", float64(g.jobsTracked))

	if g.workerHealth != nil {
		name := "ivoryd_worker_healthy"
		_, _ = fmt.Fprintf(w, "# HELP %s 1 while the worker passes health checks, by worker URL.\n# TYPE %s gauge\n", name, name)
		urls := make([]string, 0, len(g.workerHealth))
		for u := range g.workerHealth {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		for _, u := range urls {
			v := 0
			if g.workerHealth[u] {
				v = 1
			}
			_, _ = fmt.Fprintf(w, "%s{%s} %d\n", name, workerLabel(u), v)
		}
	}

	writeGauge(w, "ivoryd_result_cache_entries", "Entries in the LRU result cache.", float64(g.cacheEntries))
	writeCounter(w, "ivoryd_result_cache_hits_total", "Result-cache hits.", g.cacheHits)
	writeCounter(w, "ivoryd_result_cache_misses_total", "Result-cache misses.", g.cacheMisses)
	writeCounter(w, "ivoryd_coalesced_requests_total", "Requests that joined an identical in-flight computation.", g.coalesced)
	ratio := 0.0
	if total := g.cacheHits + g.cacheMisses; total > 0 {
		ratio = float64(g.cacheHits) / float64(total)
	}
	writeGauge(w, "ivoryd_result_cache_hit_ratio", "Lifetime result-cache hit ratio.", ratio)

	// Engine-level counters (process-lifetime totals).
	th, tm := topology.CacheStats()
	writeCounter(w, "ivory_topology_cache_hits_total", "Topology analyze-memo hits.", th)
	writeCounter(w, "ivory_topology_cache_misses_total", "Topology analyze-memo misses.", tm)
	ph, pm := pds.TraceCacheStats()
	writeCounter(w, "ivory_pds_trace_cache_hits_total", "PDS core-current trace cache hits.", ph)
	writeCounter(w, "ivory_pds_trace_cache_misses_total", "PDS core-current trace cache misses.", pm)
}

// parseExposition is shared with the tests: it maps "name{labels}" -> value
// for every sample line in a text exposition.
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
