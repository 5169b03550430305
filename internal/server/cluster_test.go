package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Cluster-mode acceptance tests: coordinator output must be bit-identical
// to single-node output for both search strategies at any worker count and
// shard granularity, a cache hit must short-circuit shard dispatch, shard
// requests must never pollute the full-result cache, and degraded fleets
// must either reassign (identical output) or degrade to an explicit
// incomplete partial — never a torn merge.

// newWorkerServer boots a worker replica behind httptest. The deep queue
// absorbs shard storms from fine-grained partition tests without 429 noise.
func newWorkerServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 2, QueueDepth: 256, EngineWorkers: 1, Role: "worker"})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// newCoordinator boots a coordinator wired to the given worker URLs.
func newCoordinator(t *testing.T, urls []string, mutate func(*ClusterConfig)) (*Server, *httptest.Server) {
	t.Helper()
	cc := &ClusterConfig{Workers: urls, HealthInterval: 50 * time.Millisecond}
	if mutate != nil {
		mutate(cc)
	}
	s := New(Config{Workers: 2, QueueDepth: 8, EngineWorkers: 1, Cluster: cc})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// exploreBody requests the full ranked list for one of the committed paper
// sweeps (the smoke spec) under the given strategy.
func exploreBody(search string) string {
	return fmt.Sprintf(`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"search":%q},"top":-1}`, search)
}

// normalizeVolatileStats zeroes the measurement fields that legitimately
// differ between runs (wall clock, throughput, package-wide cache diffs).
// Everything else — candidates, ranking, per-kind counts, jobs/done,
// pruning telemetry — must match bit-for-bit.
func normalizeVolatileStats(r *ExploreResponse) {
	r.Stats.WallMS = 0
	r.Stats.CandidatesPerSec = 0
	r.Stats.TopoCacheHits = 0
	r.Stats.TopoCacheMisses = 0
}

// canonicalExploreJSON re-marshals a wire body with volatile stats zeroed.
func canonicalExploreJSON(t *testing.T, body []byte) string {
	t.Helper()
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("bad explore body %.200s: %v", body, err)
	}
	normalizeVolatileStats(&er)
	out, err := json.Marshal(er)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestClusterEquivalence proves the tentpole determinism contract:
// coordinator output over 1, 2, and 4 workers is bit-identical to the
// single-node wire body for both the exhaustive sweep and the adaptive
// search.
func TestClusterEquivalence(t *testing.T) {
	_, single := newWorkerServer(t)
	for _, search := range []string{"exhaustive", "adaptive"} {
		_, refBody := postJSON(t, single.URL+"/v1/explore", exploreBody(search))
		ref := canonicalExploreJSON(t, refBody)
		var er ExploreResponse
		if err := json.Unmarshal(refBody, &er); err != nil || len(er.Candidates) == 0 {
			t.Fatalf("single-node %s returned no candidates (err %v)", search, err)
		}
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", search, workers), func(t *testing.T) {
				urls := make([]string, workers)
				for i := range urls {
					_, ts := newWorkerServer(t)
					urls[i] = ts.URL
				}
				_, coord := newCoordinator(t, urls, nil)
				resp, body := postJSON(t, coord.URL+"/v1/explore", exploreBody(search))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("coordinator explore: %d %s", resp.StatusCode, body)
				}
				if got := canonicalExploreJSON(t, body); got != ref {
					t.Errorf("cluster result diverged from single-node\n got: %.400s\nwant: %.400s", got, ref)
				}
			})
		}
	}
}

// TestClusterFineShardsOnTies slices the space far finer than the worker
// count — shard boundaries land between adjacent configurations whose
// candidates share labels and tie under the objective (the two SC
// allocation policies of one cell, neighbouring shares at the same
// interleave) — so the merge leans on the canonical-key tie-break instead
// of arrival order. Output must still be bit-identical.
func TestClusterFineShardsOnTies(t *testing.T) {
	_, single := newWorkerServer(t)
	_, refBody := postJSON(t, single.URL+"/v1/explore", exploreBody("exhaustive"))
	ref := canonicalExploreJSON(t, refBody)

	// Confirm duplicate labels actually exist, so the tie-break is
	// load-bearing in this sweep rather than vacuous.
	var er ExploreResponse
	if err := json.Unmarshal(refBody, &er); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	dup := false
	for _, c := range er.Candidates {
		if seen[c.Label] {
			dup = true
			break
		}
		seen[c.Label] = true
	}
	if !dup {
		t.Fatal("sweep has no duplicate-label candidates; tie-boundary test is vacuous")
	}

	urls := make([]string, 2)
	for i := range urls {
		_, ts := newWorkerServer(t)
		urls[i] = ts.URL
	}
	_, coord := newCoordinator(t, urls, func(cc *ClusterConfig) {
		cc.ShardsPerWorker = 8 // 16 slices over ~600 refs: boundaries every ~40 refs
	})
	resp, body := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("coordinator explore: %d %s", resp.StatusCode, body)
	}
	if got := canonicalExploreJSON(t, body); got != ref {
		t.Error("fine-grained sharding diverged from single-node")
	}
}

// countingHandler tallies shard API calls reaching a worker.
type countingHandler struct {
	h      http.Handler
	shards atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard/explore" {
		c.shards.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

// TestCoordinatorCacheHitSkipsDispatch proves the cache-coherence
// satellite's first half: a repeated spec is served from the coordinator's
// result cache with zero new shard dispatches.
func TestCoordinatorCacheHitSkipsDispatch(t *testing.T) {
	ws, _ := newWorkerServer(t)
	counter := &countingHandler{h: ws.Handler()}
	ts := httptest.NewServer(counter)
	t.Cleanup(ts.Close)

	_, coord := newCoordinator(t, []string{ts.URL}, nil)
	resp, first := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first explore: %d %s", resp.StatusCode, first)
	}
	afterFirst := counter.shards.Load()
	if afterFirst == 0 {
		t.Fatal("first exploration dispatched no shards")
	}
	resp, second := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second explore: %d", resp.StatusCode)
	}
	if got := counter.shards.Load(); got != afterFirst {
		t.Errorf("cache hit dispatched %d new shards, want 0", got-afterFirst)
	}
	if string(first) != string(second) {
		t.Error("cached response differs from computed response")
	}
}

// TestShardRequestDoesNotPolluteCache proves the satellite's second half:
// serving a shard slice must leave the worker's full-result cache empty,
// so a later full exploration of the same spec computes the whole space
// instead of replaying a fragment.
func TestShardRequestDoesNotPolluteCache(t *testing.T) {
	ws, ts := newWorkerServer(t)
	shardReq := `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"lo":0,"hi":5}`
	resp, body := postJSON(t, ts.URL+"/v1/shard/explore", shardReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shard explore: %d %s", resp.StatusCode, body)
	}
	var sr ShardResponse
	if err := json.Unmarshal(body, &sr); err != nil || len(sr.Outcomes) != 5 {
		t.Fatalf("want 5 outcomes, got %d (err %v)", len(sr.Outcomes), err)
	}
	if n := ws.cache.Len(); n != 0 {
		t.Fatalf("shard request left %d entries in the result cache, want 0", n)
	}
	// The later full request must sweep the whole space, not the fragment.
	resp, body = postJSON(t, ts.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("full explore after shard: %d", resp.StatusCode)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Stats.Jobs <= 5 {
		t.Errorf("full exploration ran %d jobs; looks like the shard fragment leaked into the cache", er.Stats.Jobs)
	}
}

// failAfterHandler serves a worker that starts returning 500 on the shard
// API after the first n shard calls — a replica dying mid-sweep.
type failAfterHandler struct {
	h      http.Handler
	n      int64
	shards atomic.Int64
}

func (f *failAfterHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard/explore" {
		if f.shards.Add(1) > f.n {
			http.Error(w, "worker lost", http.StatusInternalServerError)
			return
		}
	}
	f.h.ServeHTTP(w, r)
}

// TestClusterReassignsLostWorker kills one of two workers mid-sweep (500s
// after 2 shards) and asserts reassignment reproduces the single-node
// result exactly, with the retry counters visible on /v1/cluster.
func TestClusterReassignsLostWorker(t *testing.T) {
	_, single := newWorkerServer(t)
	_, refBody := postJSON(t, single.URL+"/v1/explore", exploreBody("exhaustive"))
	ref := canonicalExploreJSON(t, refBody)

	dying, _ := newWorkerServer(t)
	fh := &failAfterHandler{h: dying.Handler(), n: 2}
	dyingTS := httptest.NewServer(fh)
	t.Cleanup(dyingTS.Close)
	_, healthyTS := newWorkerServer(t)

	_, coord := newCoordinator(t, []string{dyingTS.URL, healthyTS.URL}, func(cc *ClusterConfig) {
		cc.ShardsPerWorker = 4
		cc.MaxRetries = 3
	})
	resp, body := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore with dying worker: %d %s", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Incomplete || er.Cancelled {
		t.Fatalf("reassignment should complete the sweep, got incomplete=%v cancelled=%v", er.Incomplete, er.Cancelled)
	}
	if got := canonicalExploreJSON(t, body); got != ref {
		t.Error("result after worker loss diverged from single-node")
	}

	resp, cbody := getJSON(t, coord.URL+"/v1/cluster")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cluster: %d", resp.StatusCode)
	}
	var cr ClusterResponse
	if err := json.Unmarshal(cbody, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Role != "coordinator" || len(cr.Workers) != 2 {
		t.Fatalf("bad cluster body: %s", cbody)
	}
	var retries, shardsErr int64
	for _, w := range cr.Workers {
		retries += w.Retries
		shardsErr += w.ShardsErr
	}
	if retries == 0 || shardsErr == 0 {
		t.Errorf("worker loss left no telemetry: retries=%d shards_err=%d", retries, shardsErr)
	}
}

// TestClusterIncompleteAfterRetryExhaustion wires a fleet where one worker
// always fails the shard API and retries are disabled: lost slices must
// surface as a 200 partial with incomplete=true (mirroring the PR 3
// cancellation contract), every returned candidate drawn from the
// single-node result, never an error or a torn merge.
func TestClusterIncompleteAfterRetryExhaustion(t *testing.T) {
	_, single := newWorkerServer(t)
	_, refBody := postJSON(t, single.URL+"/v1/explore", exploreBody("exhaustive"))
	var ref ExploreResponse
	if err := json.Unmarshal(refBody, &ref); err != nil {
		t.Fatal(err)
	}
	refSet := map[string]bool{}
	for _, c := range ref.Candidates {
		refSet[fmt.Sprintf("%s|%s|%.17g|%.17g", c.Kind, c.Label, c.EfficiencyPct, c.AreaMM2)] = true
	}

	broken, _ := newWorkerServer(t)
	fh := &failAfterHandler{h: broken.Handler(), n: 0} // every shard 500s
	brokenTS := httptest.NewServer(fh)
	t.Cleanup(brokenTS.Close)
	_, healthyTS := newWorkerServer(t)

	_, coord := newCoordinator(t, []string{brokenTS.URL, healthyTS.URL}, func(cc *ClusterConfig) {
		cc.MaxRetries = -1 // no reassignment: lost slices stay lost
		cc.ShardsPerWorker = 2
		// Slow health checks keep the broken worker in rotation (its
		// /healthz is fine; only the shard API fails), so slices genuinely
		// land on it and die.
		cc.HealthInterval = time.Hour
	})
	resp, body := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded explore: %d %s", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Incomplete || !er.Cancelled || er.Error == "" {
		t.Fatalf("want incomplete+cancelled partial with error, got incomplete=%v cancelled=%v error=%q",
			er.Incomplete, er.Cancelled, er.Error)
	}
	if len(er.Candidates) == 0 || len(er.Candidates) >= len(ref.Candidates) {
		t.Fatalf("partial should hold some but not all candidates: got %d of %d", len(er.Candidates), len(ref.Candidates))
	}
	if er.Stats.Done >= er.Stats.Jobs {
		t.Errorf("incomplete run reports done=%d jobs=%d", er.Stats.Done, er.Stats.Jobs)
	}
	for _, c := range er.Candidates {
		if !refSet[fmt.Sprintf("%s|%s|%.17g|%.17g", c.Kind, c.Label, c.EfficiencyPct, c.AreaMM2)] {
			t.Fatalf("partial contains candidate absent from the single-node sweep: %s %s", c.Kind, c.Label)
		}
	}
	if !strings.Contains(er.Error, "incomplete") {
		t.Errorf("error %q does not name the incomplete condition", er.Error)
	}
}

// TestClusterEquivalenceNonRoundTripArea pins the area-unit wire contract:
// 0.8 mm² (like ~27% of float64 values) does not survive the mm²→m² unit
// conversion round trip — it drifts 1 ULP — so without the
// engine-precision area_m2 field on ShardRequest the worker would compute
// a different spec hash (blanket 409 version skew) and evaluate a
// different area budget. Cluster output must match single-node
// bit-for-bit for such areas under both strategies.
func TestClusterEquivalenceNonRoundTripArea(t *testing.T) {
	//lint:ignore floatcmp the test exists because this bit-exact round trip fails
	if a := 0.8 * 1e-6; (a*1e6)*1e-6 == a {
		t.Fatal("0.8 mm² round-trips exactly on this platform; pick a drifting area")
	}
	_, single := newWorkerServer(t)
	urls := make([]string, 2)
	for i := range urls {
		_, ts := newWorkerServer(t)
		urls[i] = ts.URL
	}
	_, coord := newCoordinator(t, urls, nil)
	for _, search := range []string{"exhaustive", "adaptive"} {
		t.Run(search, func(t *testing.T) {
			req := fmt.Sprintf(`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":0.8,"search":%q},"top":-1}`, search)
			resp, refBody := postJSON(t, single.URL+"/v1/explore", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("single-node explore: %d %s", resp.StatusCode, refBody)
			}
			ref := canonicalExploreJSON(t, refBody)
			resp, body := postJSON(t, coord.URL+"/v1/explore", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("coordinator explore: %d %s", resp.StatusCode, body)
			}
			var er ExploreResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatal(err)
			}
			if er.Incomplete || er.Cancelled || er.Error != "" {
				t.Fatalf("cluster run degraded: incomplete=%v cancelled=%v error=%q", er.Incomplete, er.Cancelled, er.Error)
			}
			if got := canonicalExploreJSON(t, body); got != ref {
				t.Errorf("cluster result for a non-round-tripping area diverged from single-node\n got: %.400s\nwant: %.400s", got, ref)
			}
		})
	}
}

// skewHandler 409s every shard call, simulating a worker from a
// mismatched build whose canonical hash disagrees with the coordinator's.
type skewHandler struct{ h http.Handler }

func (s *skewHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/shard/explore" {
		http.Error(w, `{"error":"spec hash mismatch (version skew?)"}`, http.StatusConflict)
		return
	}
	s.h.ServeHTTP(w, r)
}

// TestClusterVersionSkewFailsHard pins the failure taxonomy: a fatal shard
// disagreement (409 version skew) must fail the exploration outright — a
// mis-versioned fleet is a hard error operators must see, never a
// benign-looking incomplete partial.
func TestClusterVersionSkewFailsHard(t *testing.T) {
	ws, _ := newWorkerServer(t)
	ts := httptest.NewServer(&skewHandler{h: ws.Handler()})
	t.Cleanup(ts.Close)
	_, coord := newCoordinator(t, []string{ts.URL}, nil)
	resp, body := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("want 500 on version skew, got %d %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "409") {
		t.Errorf("error %q does not surface the worker's 409", er.Error)
	}
	if strings.Contains(er.Error, "incomplete") {
		t.Errorf("version skew mislabelled as incomplete: %q", er.Error)
	}
}

// TestPickWorkerCursorWrap pins the round-robin cursor arithmetic: a
// cursor past int range (counter wrap, or any value above 2^31 on a
// 32-bit int) must never yield a negative ring index. Before the
// uint64-space modulo this panicked once the cursor crossed 2^63.
func TestPickWorkerCursorWrap(t *testing.T) {
	c := newCluster(ClusterConfig{Workers: []string{"http://a", "http://b", "http://c"}}, newMetrics())
	c.rr.Store(math.MaxInt64) // the next few picks straddle the int boundary
	for i := 0; i < 8; i++ {
		if w := c.pickWorker(); w == nil {
			t.Fatal("pickWorker returned nil with a populated ring")
		}
	}
}

// TestShardSpecHashMismatchIs409 pins the version-skew guard: a
// coordinator hash that disagrees with the worker's canonical hash must be
// rejected with 409, not evaluated into a mismatched merge.
func TestShardSpecHashMismatchIs409(t *testing.T) {
	_, ts := newWorkerServer(t)
	req := `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"spec_hash":"deadbeefdeadbeef","lo":0,"hi":5}`
	resp, body := postJSON(t, ts.URL+"/v1/shard/explore", req)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("want 409 on hash mismatch, got %d %s", resp.StatusCode, body)
	}
}

// TestShardRangeOutOfBoundsIs400 pins slice validation on the worker.
func TestShardRangeOutOfBoundsIs400(t *testing.T) {
	_, ts := newWorkerServer(t)
	req := `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"lo":0,"hi":1000000}`
	resp, body := postJSON(t, ts.URL+"/v1/shard/explore", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 on out-of-range slice, got %d %s", resp.StatusCode, body)
	}
}

// TestClusterMetricsExposition asserts the new Prometheus families appear
// with per-worker labels after a cluster run.
func TestClusterMetricsExposition(t *testing.T) {
	_, wts := newWorkerServer(t)
	_, coord := newCoordinator(t, []string{wts.URL}, nil)
	resp, _ := postJSON(t, coord.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore: %d", resp.StatusCode)
	}
	resp, body := getJSON(t, coord.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	samples := parseExposition(string(body))
	dispatched := 0.0
	for name, v := range samples {
		if strings.HasPrefix(name, `ivoryd_shards_dispatched_total{worker="`) {
			dispatched += v
		}
	}
	if dispatched == 0 {
		t.Error("ivoryd_shards_dispatched_total has no per-worker samples")
	}
	found := false
	for name := range samples {
		if strings.HasPrefix(name, `ivoryd_worker_healthy{worker="`) {
			found = true
		}
	}
	if !found {
		t.Error("ivoryd_worker_healthy gauge missing")
	}
}
