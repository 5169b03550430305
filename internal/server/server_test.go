package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivory/internal/core"
	"ivory/internal/experiments"
	"ivory/internal/numeric"
)

// fakeExploreResult builds a small deterministic result for engine stubs.
func fakeExploreResult(spec core.Spec, n int) *core.Result {
	res := &core.Result{Spec: spec}
	for i := 0; i < n; i++ {
		res.Candidates = append(res.Candidates, core.Candidate{
			Kind:  core.KindSC,
			Label: fmt.Sprintf("stub-%d", i),
		})
	}
	if n > 0 {
		res.Best = res.Candidates[0]
	}
	res.Stats.Jobs = n
	res.Stats.Done = n
	res.Stats.PerKind[core.KindSC] = core.KindStats{Accepted: n}
	return res
}

func fakeTransientResult() *experiments.Fig10Result {
	return &experiments.Fig10Result{
		Cells: []experiments.Fig10Cell{{
			Benchmark: "stub", Config: "VRM",
			Stats:    numeric.Summary{N: 3, Min: 0.89, Max: 0.91, Median: 0.9, Q1: 0.895, Q3: 0.905},
			NoiseVpp: 0.02, WorstDroop: 0.01,
		}},
		NoiseByConfig: map[string]float64{"VRM": 0.02},
		DroopByConfig: map[string]float64{"VRM": 0.01},
		Configs:       []int{0},
		RunStats:      experiments.TransientStats{Cells: 1, Done: 1},
	}
}

func specBody(vout float64) string {
	return fmt.Sprintf(`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":%g,"imax_a":1,"area_mm2":2}}`, vout)
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestConcurrentIdenticalSpecsRunOnce is acceptance criterion (1): N
// concurrent requests for one spec execute the engine exactly once
// (singleflight), and a later identical request is a pure cache hit.
func TestConcurrentIdenticalSpecsRunOnce(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, EngineWorkers: 1})
	var calls atomic.Int64
	release := make(chan struct{})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		calls.Add(1)
		<-release
		return fakeExploreResult(sp, 2), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 8
	var wg sync.WaitGroup
	hashes := make([]string, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postJSON(t, ts.URL+"/v1/explore", specBody(0.9))
			codes[i] = resp.StatusCode
			var er ExploreResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Errorf("request %d: bad body %q: %v", i, body, err)
				return
			}
			hashes[i] = er.SpecHash
		}(i)
	}
	// All n requests hit one unresolved flight: 1 leader + n-1 coalesced.
	// Wait for that state before releasing the engine so none of them can
	// sneak in as a post-completion cache hit.
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.Coalesced() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests coalesced", s.flights.Coalesced())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical concurrent requests, want exactly 1", got, n)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		if hashes[i] == "" || hashes[i] != hashes[0] {
			t.Errorf("request %d: hash %q != %q", i, hashes[i], hashes[0])
		}
	}

	// One more identical request: served from the LRU, engine untouched.
	resp, _ := postJSON(t, ts.URL+"/v1/explore", specBody(0.9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached request: status %d", resp.StatusCode)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("cache hit re-ran the engine (%d calls)", got)
	}
	if hits, _ := s.cache.Stats(); hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", hits)
	}

	// With no work in flight the drain is clean.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestFullQueueSheds429 is acceptance criterion (2): when the queue is
// full the server answers 429 with Retry-After instead of blocking.
func TestFullQueueSheds429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		started <- struct{}{}
		<-release
		return fakeExploreResult(sp, 1), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	async := func(vout float64) string {
		return fmt.Sprintf(`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":%g,"imax_a":1,"area_mm2":2},"async":true}`, vout)
	}

	// First job occupies the single worker...
	resp, body := postJSON(t, ts.URL+"/v1/explore", async(0.6))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d (%s)", resp.StatusCode, body)
	}
	var job1 JobStatus
	if err := json.Unmarshal(body, &job1); err != nil || job1.ID == "" {
		t.Fatalf("job 1: bad 202 body %q (%v)", body, err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up job 1")
	}

	// ...the second fills the depth-1 queue...
	resp, body = postJSON(t, ts.URL+"/v1/explore", async(0.7))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d (%s)", resp.StatusCode, body)
	}

	// ...and the third must be shed, not blocked.
	resp, body = postJSON(t, ts.URL+"/v1/explore", async(0.8))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d (%s), want 429", resp.StatusCode, body)
	}
	// The hint is derived from the observed drain rate but always lands in
	// the sane [1, 60]s window — at least 1s so clients never hot-loop.
	raSecs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || raSecs < 1 || raSecs > 60 {
		t.Errorf("429 Retry-After %q, want an integer in [1, 60]", resp.Header.Get("Retry-After"))
	}
	var eresp ErrorResponse
	if err := json.Unmarshal(body, &eresp); err != nil || eresp.RetryAfterS <= 0 {
		t.Errorf("429 body %q lacked retry_after_s", body)
	}

	close(release)

	// The accepted jobs still complete.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+job1.ID)
		var js JobStatus
		if err := json.Unmarshal(body, &js); err != nil {
			t.Fatalf("poll: %v (%s)", err, body)
		}
		if js.Status == JobDone {
			if js.Result == nil {
				t.Fatal("done job carried no result")
			}
			break
		}
		if js.Status == JobError {
			t.Fatalf("job 1 failed: %s", js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job 1 stuck in %q", js.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if resp, _ := getJSON(t, ts.URL+"/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: status %d, want 404", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDrainsInflight is acceptance criterion (3): during drain
// /healthz flips to 503 "draining", admission closes, and an in-flight
// exploration is cancelled and still delivers its ranked partial result.
func TestShutdownDrainsInflight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, EngineWorkers: 1})
	started := make(chan struct{})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		close(started)
		<-sp.Context.Done() // block until the drain window cancels compute
		res := fakeExploreResult(sp, 1)
		res.Stats.Cancelled = true
		return res, sp.Context.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type reply struct {
		code int
		body []byte
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/explore", "application/json", strings.NewReader(specBody(0.9)))
		if err != nil {
			t.Errorf("in-flight POST: %v", err)
			replies <- reply{}
			return
		}
		defer func() { _ = resp.Body.Close() }()
		b, _ := io.ReadAll(resp.Body)
		replies <- reply{resp.StatusCode, b}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("engine never started")
	}

	// Healthy before the drain begins.
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz: %d", resp.StatusCode)
	}

	shutdownErr := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	// The draining flag flips synchronously at the head of Shutdown; poll
	// only for the goroutine to have entered it.
	deadline := time.Now().Add(10 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d (%s)", resp.StatusCode, body)
	}
	var hb struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &hb); err != nil || hb.Status != "draining" {
		t.Fatalf("draining healthz body %q", body)
	}

	// New work is refused while draining.
	if resp, _ := postJSON(t, ts.URL+"/v1/explore", specBody(0.7)); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("admission during drain: %d, want 503", resp.StatusCode)
	}

	// The blocked exploration is cancelled by the closing drain window and
	// its ranked partial still reaches the waiting client as a 200.
	r := <-replies
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request: status %d (%s)", r.code, r.body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(r.body, &er); err != nil {
		t.Fatalf("in-flight body: %v (%s)", err, r.body)
	}
	if !er.Cancelled || er.Error == "" {
		t.Errorf("partial not marked cancelled: cancelled=%v error=%q", er.Cancelled, er.Error)
	}
	if len(er.Candidates) != 1 {
		t.Errorf("partial lost its ranked candidates: %d", len(er.Candidates))
	}

	if err := <-shutdownErr; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want context.DeadlineExceeded", err)
	}
}

// TestMetricsScrape is the scrape-and-parse acceptance criterion: /metrics
// exposes queue depth, request latency, and cache hit-ratio counters in
// parseable Prometheus text format.
func TestMetricsScrape(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		return fakeExploreResult(sp, 1), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One miss-and-compute, one cache hit, one health check.
	postJSON(t, ts.URL+"/v1/explore", specBody(0.9))
	postJSON(t, ts.URL+"/v1/explore", specBody(0.9))
	getJSON(t, ts.URL+"/healthz")

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	m := parseExposition(string(body))

	mustEq := func(key string, want float64) {
		t.Helper()
		got, ok := m[key]
		if !ok {
			t.Errorf("metric %s missing", key)
			return
		}
		if !numeric.ApproxEqual(got, want, 0) {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	mustEq(`ivoryd_requests_total{endpoint="explore",code="200"}`, 2)
	mustEq(`ivoryd_requests_total{endpoint="healthz",code="200"}`, 1)
	mustEq(`ivoryd_jobs_submitted_total{endpoint="explore"}`, 1)
	mustEq(`ivoryd_result_cache_hits_total`, 1)
	mustEq(`ivoryd_result_cache_misses_total`, 1)
	mustEq(`ivoryd_result_cache_hit_ratio`, 0.5)
	mustEq(`ivoryd_result_cache_entries`, 1)
	mustEq(`ivoryd_queue_depth`, 0)
	mustEq(`ivoryd_draining`, 0)
	mustEq(`ivoryd_request_duration_seconds_count{endpoint="explore"}`, 2)
	// The +Inf bucket always equals the count.
	mustEq(`ivoryd_request_duration_seconds_bucket{endpoint="explore",le="+Inf"}`, 2)
	for _, engineCounter := range []string{
		"ivory_topology_cache_hits_total",
		"ivory_pds_trace_cache_hits_total",
	} {
		if _, ok := m[engineCounter]; !ok {
			t.Errorf("engine counter %s missing from exposition", engineCounter)
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestAsyncJobLifecycle: a 202 submit is pollable to completion and the
// record carries the full response body.
func TestAsyncJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		return fakeExploreResult(sp, 3), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explore",
		`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatal(err)
	}
	if js.ID == "" || js.Kind != "explore" || js.Hash == "" {
		t.Fatalf("bad job record: %+v", js)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := getJSON(t, ts.URL+"/v1/jobs/"+js.ID)
		var got JobStatus
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.Status == JobDone {
			res, err := json.Marshal(got.Result)
			if err != nil {
				t.Fatal(err)
			}
			var er ExploreResponse
			if err := json.Unmarshal(res, &er); err != nil {
				t.Fatalf("job result is not an ExploreResponse: %v", err)
			}
			if er.SpecHash != js.Hash || er.TotalCandidates != 3 {
				t.Errorf("job result drifted: hash %q vs %q, %d candidates", er.SpecHash, js.Hash, er.TotalCandidates)
			}
			if got.FinishedAt == "" {
				t.Error("done job has no finished_at")
			}
			break
		}
		if got.Status == JobError {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestRequestValidation: malformed inputs are client errors before any
// compute is admitted.
func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	var calls atomic.Int64
	s.explore = func(sp core.Spec) (*core.Result, error) {
		calls.Add(1)
		return fakeExploreResult(sp, 1), nil
	}
	s.transient = func(context.Context, experiments.TransientOptions) (*experiments.Fig10Result, error) {
		calls.Add(1)
		return fakeTransientResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, path, body string
		want             int
	}{
		{"unknown field", "/v1/explore", `{"spec":{"node":"45nm"},"bogus":1}`, http.StatusBadRequest},
		{"bad objective", "/v1/explore", `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"objective":"banana"}}`, http.StatusBadRequest},
		{"bad kind", "/v1/explore", `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"kinds":["flyback"]}}`, http.StatusBadRequest},
		{"vout above vin", "/v1/explore", `{"spec":{"node":"45nm","vin_v":0.9,"vout_v":1.8,"imax_a":1,"area_mm2":2}}`, http.StatusBadRequest},
		{"missing node", "/v1/explore", `{"spec":{"vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2}}`, http.StatusBadRequest},
		{"not json", "/v1/explore", `hello`, http.StatusBadRequest},
		{"negative span", "/v1/transient", `{"t_us":-1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.want)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", c.name, body)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("validation failures reached the engine %d times", calls.Load())
	}

	// Method mismatches are routed by the mux, not the handlers.
	resp, err := http.Get(ts.URL + "/v1/explore")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/explore: %d, want 405", resp.StatusCode)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestPerRequestDeadline: a request-scoped timeout_ms that fires with no
// partial result surfaces as 504.
func TestPerRequestDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	s.explore = func(sp core.Spec) (*core.Result, error) {
		<-sp.Context.Done()
		return nil, sp.Context.Err()
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explore",
		`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"timeout_ms":30}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestTransientEndpoint: the stubbed sweep maps to wire form, and identical
// transient requests share one computation just like explorations.
func TestTransientEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	var calls atomic.Int64
	s.transient = func(ctx context.Context, opt experiments.TransientOptions) (*experiments.Fig10Result, error) {
		calls.Add(1)
		if len(opt.Benchmarks) != 1 || opt.Benchmarks[0] != "stub" || len(opt.Configs) != 1 {
			return nil, fmt.Errorf("request scoping lost: %+v", opt)
		}
		return fakeTransientResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"t_us":1,"benchmarks":["stub"],"configs":[0]}`
	resp, b := postJSON(t, ts.URL+"/v1/transient", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, b)
	}
	var tr TransientResponse
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Cells) != 1 || tr.Cells[0].Benchmark != "stub" {
		t.Fatalf("cells drifted: %+v", tr.Cells)
	}
	if !numeric.ApproxEqual(tr.Cells[0].NoiseMVpp, 20, 1e-12) { // 0.02 V -> 20 mV
		t.Errorf("noise unit conversion: %g mVpp, want 20", tr.Cells[0].NoiseMVpp)
	}
	if tr.RequestHash == "" {
		t.Error("no request hash")
	}

	// Identical request: cache hit, engine untouched.
	postJSON(t, ts.URL+"/v1/transient", body)
	if calls.Load() != 1 {
		t.Errorf("transient engine ran %d times, want 1", calls.Load())
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestExploreEndToEnd runs the real engine through the full HTTP stack once:
// decode -> normalize -> queue -> core.Explore -> DTO -> JSON.
func TestExploreEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real engine sweep")
	}
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/explore",
		`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"top":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Best == nil || er.TotalCandidates == 0 || len(er.Candidates) == 0 {
		t.Fatalf("empty exploration: %s", body)
	}
	if len(er.Candidates) > 3 {
		t.Errorf("top=3 returned %d candidates", len(er.Candidates))
	}
	if er.Stats.Jobs == 0 || er.Stats.Done != er.Stats.Jobs {
		t.Errorf("stats drifted: %+v", er.Stats)
	}
	if !numeric.ApproxEqual(er.Spec.RippleMaxV, 0.01*0.9, 1e-12) { // normalized echo: 1% of VOut
		t.Errorf("spec echo not normalized: ripple %g", er.Spec.RippleMaxV)
	}
	if er.Best.EfficiencyPct <= 0 || er.Best.EfficiencyPct > 100 {
		t.Errorf("best efficiency %g%% out of range", er.Best.EfficiencyPct)
	}

	// An unmeetable budget is a 422, not a server error.
	resp, body = postJSON(t, ts.URL+"/v1/explore",
		`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":100,"area_mm2":0.000001}}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible spec: status %d (%s), want 422", resp.StatusCode, body)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestAdaptiveExploreFeasibleWhereExhaustiveIs posts core's golden spec
// #232, a buck-only spec the successive-halving search once answered 422
// for although the exhaustive sweep finds designs: both strategies must
// answer 200 with the same best design.
func TestAdaptiveExploreFeasibleWhereExhaustiveIs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var best []string
	for _, search := range []string{"exhaustive", "adaptive"} {
		resp, body := postJSON(t, ts.URL+"/v1/explore", `{"spec":{"node":"45nm","vin_v":1.2,"vout_v":1.0467840695484685,`+
			`"imax_a":2.0101478688506162,"area_mm2":4.369330786406287,"kinds":["buck"],"search":"`+search+`"},"top":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s), want 200", search, resp.StatusCode, body)
		}
		var er ExploreResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatal(err)
		}
		if er.Best == nil {
			t.Fatalf("%s: no best design: %s", search, body)
		}
		best = append(best, er.Best.Label)
	}
	if best[0] != best[1] {
		t.Errorf("best design: exhaustive %q, adaptive %q", best[0], best[1])
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestTransientRejectsUnknownBenchmark exercises the real engine's input
// validation through the endpoint (no simulation runs for a bad name).
func TestTransientRejectsUnknownBenchmark(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/transient", `{"benchmarks":["no-such-benchmark"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("no-such-benchmark")) {
		t.Errorf("error body %q does not name the offending benchmark", body)
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownTeardownBoundedByCallerCtx pins the HTTP-teardown contract:
// the post-drain connection grace derives from the caller's context, so a
// hung client connection cannot pin Shutdown for the full internal grace
// period once the caller has given up. Regression test for the teardown
// timeout being derived from context.Background instead of ctx.
func TestShutdownTeardownBoundedByCallerCtx(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()

	// A connection stuck mid-request-header is active, so the HTTP layer's
	// graceful shutdown would wait its whole grace window for it.
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: ivory\r\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the server observe the bytes

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err = s.Shutdown(ctx)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Shutdown took %v with a cancelled caller ctx; the teardown grace is not bounded by it", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown error = %v, want context.Canceled", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
