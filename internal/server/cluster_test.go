package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ivory/internal/core"
)

// Cluster-mode acceptance tests: coordinator output must be the
// single-node output for both search strategies at any worker count, a
// spec must always land on the worker that owns its hash (so repeats hit
// that worker's cache), failover must walk the rendezvous order only on
// transport errors, 5xx and 429, and async jobs and streams must work
// through the coordinator as they do on one node.

// newWorkerServer boots a worker replica behind httptest.
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

// exploreHash is the spec hash, and so the routing key, of exploreBody.
func exploreHash(t *testing.T, search string) string {
	t.Helper()
	var req ExploreRequest
	if err := json.Unmarshal([]byte(exploreBody(search)), &req); err != nil {
		t.Fatal(err)
	}
	norm, err := normalizeSpec(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return SpecHash(norm)
}

// faultyWorker wraps a worker replica's handler: it counts the
// explorations that reach it and, per mode, fails them — closing the
// connection, or answering a fixed status — while /healthz and job polls
// pass through, so the worker stays in rotation.
type faultyWorker struct {
	h        http.Handler
	mode     atomic.Int64 // modePass, modeClose, or an HTTP status
	explores atomic.Int64
}

const (
	modePass  = 0
	modeClose = 1
)

func (f *faultyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/explore") {
		f.h.ServeHTTP(w, r)
		return
	}
	f.explores.Add(1)
	switch m := int(f.mode.Load()); m {
	case modePass:
		f.h.ServeHTTP(w, r)
	case modeClose:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			_ = conn.Close()
		}
	default:
		http.Error(w, `{"error":"injected"}`, m)
	}
}

// faultyFleet boots n real workers behind faultyWorker wrappers and a
// coordinator over them; urls[i] serves fleet[i].
func faultyFleet(t *testing.T, n int, mutate func(*ClusterConfig)) (workers []*Server, fleet []*faultyWorker, coord *Server, coordURL string) {
	t.Helper()
	var urls []string
	for i := 0; i < n; i++ {
		ws, _ := newWorkerServer(t)
		fw := &faultyWorker{h: ws.Handler()}
		ts := httptest.NewServer(fw)
		t.Cleanup(ts.Close)
		workers, fleet, urls = append(workers, ws), append(fleet, fw), append(urls, ts.URL)
	}
	coord, cts := newCoordinator(t, urls, mutate)
	return workers, fleet, coord, cts.URL
}

// ownerIndex is the fleet index of the first worker in hash's rendezvous
// order.
func ownerIndex(t *testing.T, coord *Server, hash string) int {
	t.Helper()
	owner := coord.cluster.order(hash)[0]
	for i, w := range coord.cluster.workers {
		if w == owner {
			return i
		}
	}
	t.Fatal("owner is not in the worker list")
	return -1
}

// TestCoordinatorRoutesRepeatSpecToOneWorker: a spec sent twice goes to
// the same worker both times, and the second request is a result-cache
// hit there, relayed byte for byte.
func TestCoordinatorRoutesRepeatSpecToOneWorker(t *testing.T) {
	workers, fleet, coord, url := faultyFleet(t, 2, nil)
	var bodies [2][]byte
	for i := range bodies {
		resp, body := postJSON(t, url+"/v1/explore", exploreBody("exhaustive"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("explore %d: %d %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	own := ownerIndex(t, coord, exploreHash(t, "exhaustive"))
	if got, other := fleet[own].explores.Load(), fleet[1-own].explores.Load(); got != 2 || other != 0 {
		t.Fatalf("owner saw %d explorations and the other worker %d, want 2 and 0", got, other)
	}
	if hits, misses := workers[own].cache.Stats(); hits != 1 || misses != 1 {
		t.Errorf("owner cache: %d hits, %d misses, want 1 and 1", hits, misses)
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Error("the cache hit relayed different bytes than the first answer")
	}
	if n := coord.cache.Len(); n != 0 {
		t.Errorf("coordinator cached %d explorations; the owning worker caches them", n)
	}
}

// TestClusterReassignsLostWorker: when the owner of a spec fails its
// explorations with 500s, the coordinator fails over to the next worker,
// the result is the single-node result, and /v1/cluster shows the
// failover.
func TestClusterReassignsLostWorker(t *testing.T) {
	_, single := newWorkerServer(t)
	_, refBody := postJSON(t, single.URL+"/v1/explore", exploreBody("exhaustive"))
	ref := canonicalExploreJSON(t, refBody)

	_, fleet, coord, url := faultyFleet(t, 2, nil)
	fleet[ownerIndex(t, coord, exploreHash(t, "exhaustive"))].mode.Store(http.StatusInternalServerError)
	resp, body := postJSON(t, url+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explore with a failing owner: %d %s", resp.StatusCode, body)
	}
	if got := canonicalExploreJSON(t, body); got != ref {
		t.Error("result after failover diverged from single-node")
	}

	resp, cbody := getJSON(t, url+"/v1/cluster")
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
	var retries, failed, served int64
	for _, w := range cr.Workers {
		retries += w.Retries
		failed += w.ShardsErr
		served += w.ShardsOK
	}
	if retries != 1 || failed != 1 || served != 1 {
		t.Errorf("failover telemetry: retries=%d failed=%d served=%d, want 1 each", retries, failed, served)
	}
}

// TestCoordinatorFailsOverByteIdentical: an owner that closes the
// connection or answers 503 or 429 sends the request to the next worker,
// and the client receives exactly the bytes that worker serves.
func TestCoordinatorFailsOverByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode int64
	}{
		{"close", modeClose},
		{"503", http.StatusServiceUnavailable},
		{"429", http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, fleet, coord, url := faultyFleet(t, 2, nil)
			own := ownerIndex(t, coord, exploreHash(t, "adaptive"))
			fleet[own].mode.Store(tc.mode)
			resp, body := postJSON(t, url+"/v1/explore", exploreBody("adaptive"))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("explore: %d %s", resp.StatusCode, body)
			}
			if n := fleet[1-own].explores.Load(); n != 1 {
				t.Fatalf("next worker saw %d explorations, want 1", n)
			}
			// The next worker cached what it computed: asking it directly
			// returns the bytes it served the coordinator.
			next := coord.cluster.order(exploreHash(t, "adaptive"))[1].url
			_, direct := postJSON(t, next+"/v1/explore", exploreBody("adaptive"))
			if string(direct) != string(body) {
				t.Errorf("relayed body differs from the worker's own\n got: %.300s\nwant: %.300s", body, direct)
			}
		})
	}
}

// TestCoordinatorAllWorkersDownIs503: with no worker reachable the answer
// is a 503 with Retry-After, after trying each worker once.
func TestCoordinatorAllWorkersDownIs503(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(http.NotFoundHandler())
		urls = append(urls, ts.URL)
		ts.Close() // the port now refuses connections
	}
	coord, cts := newCoordinator(t, urls, nil)
	resp, body := postJSON(t, cts.URL+"/v1/explore", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("want 503 with every worker down, got %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" || er.RetryAfterS < 1 {
		t.Errorf("bad error body %s (err %v)", body, err)
	}
	var failed int64
	for _, w := range coord.cluster.snapshot() {
		failed += w.ShardsErr
	}
	if failed != 2 {
		t.Errorf("%d failed forwards, want one per worker", failed)
	}
}

// TestCoordinatorRelaysWorker4xxOnce: a worker's 400 or 422 is the
// request's own answer: relayed as-is, never retried on another worker.
func TestCoordinatorRelaysWorker4xxOnce(t *testing.T) {
	t.Run("400", func(t *testing.T) {
		_, fleet, _, url := faultyFleet(t, 2, nil)
		for _, fw := range fleet {
			fw.mode.Store(http.StatusBadRequest)
		}
		resp, body := postJSON(t, url+"/v1/explore", exploreBody("exhaustive"))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "injected") {
			t.Fatalf("want the worker's 400 relayed, got %d %s", resp.StatusCode, body)
		}
		if n := fleet[0].explores.Load() + fleet[1].explores.Load(); n != 1 {
			t.Errorf("%d forwards for one 400, want 1", n)
		}
	})
	t.Run("422", func(t *testing.T) {
		_, fleet, _, url := faultyFleet(t, 2, nil)
		// Valid, but no converter fits in 1e-6 mm².
		infeasible := `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":1e-6}}`
		resp, body := postJSON(t, url+"/v1/explore", infeasible)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("want the worker's 422 relayed, got %d %s", resp.StatusCode, body)
		}
		if n := fleet[0].explores.Load() + fleet[1].explores.Load(); n != 1 {
			t.Errorf("%d forwards for one 422, want 1", n)
		}
	})
	t.Run("bad input stops at the edge", func(t *testing.T) {
		_, fleet, _, url := faultyFleet(t, 2, nil)
		resp, body := postJSON(t, url+"/v1/explore", `{"spec":{"node":"45nm","vin_v":-1}}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("want 400, got %d %s", resp.StatusCode, body)
		}
		if n := fleet[0].explores.Load() + fleet[1].explores.Load(); n != 0 {
			t.Errorf("invalid input was forwarded %d times", n)
		}
	})
}

// TestCoordinatorAsyncJobPolledThroughCoordinator: an async exploration
// submitted to the coordinator runs on its owning worker and can be
// polled to done through the coordinator; an unknown id is a 404.
func TestCoordinatorAsyncJobPolledThroughCoordinator(t *testing.T) {
	_, _, _, url := faultyFleet(t, 2, nil)
	resp, body := postJSON(t, url+"/v1/explore",
		`{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var js JobStatus
	if err := json.Unmarshal(body, &js); err != nil || js.ID == "" {
		t.Fatalf("bad job record %s (err %v)", body, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := getJSON(t, url+"/v1/jobs/"+js.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d %s", resp.StatusCode, body)
		}
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
			if err := json.Unmarshal(res, &er); err != nil || er.SpecHash != js.Hash || len(er.Candidates) == 0 {
				t.Fatalf("job result drifted: %.300s (err %v)", res, err)
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
	if resp, body := getJSON(t, url+"/v1/jobs/0123456789abcdef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job id: want 404, got %d %s", resp.StatusCode, body)
	}
}

// TestCoordinatorStreamRelaysProgressFirst: a stream through the
// coordinator is the worker's stream — progress (and best) events, then
// exactly one terminal result.
func TestCoordinatorStreamRelaysProgressFirst(t *testing.T) {
	_, _, _, url := faultyFleet(t, 2, nil)
	resp, body := postJSON(t, url+"/v1/explore/stream", exploreBody("exhaustive"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	events := parseSSE(t, body)
	progress := 0
	for i, ev := range events {
		last := i == len(events)-1
		if (ev.name == "result") != last || ev.name == "error" {
			t.Fatalf("event %d of %d is %q: want telemetry, then one terminal result", i, len(events), ev.name)
		}
		if ev.name == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress event before the result in %d events", len(events))
	}
	var er ExploreResponse
	if err := json.Unmarshal(events[len(events)-1].data, &er); err != nil || len(er.Candidates) == 0 {
		t.Fatalf("bad terminal result (err %v)", err)
	}
}

// TestCoordinatorConcurrentForwards sends concurrent requests for
// several specs through one coordinator (stub engines on the workers):
// every answer belongs to its own spec, and the forward counters add up.
func TestCoordinatorConcurrentForwards(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		ws, ts := newWorkerServer(t)
		ws.explore = func(sp core.Spec) (*core.Result, error) { return fakeExploreResult(sp, 3), nil }
		urls = append(urls, ts.URL)
	}
	coord, cts := newCoordinator(t, urls, nil)
	const specs, repeats = 8, 3
	var wg sync.WaitGroup
	for i := 0; i < specs*repeats; i++ {
		vout := 0.5 + 0.05*float64(i%specs)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(cts.URL+"/v1/explore", "application/json", strings.NewReader(specBody(vout)))
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			var er ExploreResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("vout %g: status %d, decode %v", vout, resp.StatusCode, err)
				return
			}
			//lint:ignore floatcmp the wire echoes the requested value unchanged
			if er.Spec.VOutV != vout {
				t.Errorf("asked for vout %g, got the answer for %g", vout, er.Spec.VOutV)
			}
		}()
	}
	wg.Wait()
	var served int64
	for _, w := range coord.cluster.snapshot() {
		served += w.ShardsOK
	}
	if served != specs*repeats {
		t.Errorf("workers answered %d forwards, want %d", served, specs*repeats)
	}
}

// TestRendezvousOrder pins the routing function: every order is a
// permutation of the workers, specs spread over the fleet, dropping a
// worker moves only the specs it owned, and unusable workers rank last.
func TestRendezvousOrder(t *testing.T) {
	urls := []string{"http://127.0.0.1:7001", "http://127.0.0.1:7002", "http://127.0.0.1:7003"}
	c := newCluster(ClusterConfig{Workers: urls}, newMetrics())
	pair := newCluster(ClusterConfig{Workers: []string{urls[0], urls[2]}}, newMetrics())
	const specs = 3000
	owned := map[string]int{}
	for i := 0; i < specs; i++ {
		hash := fmt.Sprintf("%016x", uint64(i)*0x9e3779b97f4a7c15)
		order := c.order(hash)
		seen := map[string]bool{}
		for _, w := range order {
			seen[w.url] = true
		}
		if len(order) != len(urls) || len(seen) != len(urls) {
			t.Fatalf("order for %s is not a permutation", hash)
		}
		owner := order[0].url
		owned[owner]++
		if got := pair.order(hash)[0].url; owner != urls[1] && got != owner {
			t.Fatalf("dropping %s moved %s from %s to %s", urls[1], hash, owner, got)
		}
	}
	for _, u := range urls {
		if n := owned[u]; n < specs/4 || n > specs*5/12 {
			t.Errorf("%s owns %d of %d specs; rendezvous should spread them about evenly", u, n, specs)
		}
	}
	hash := "00000000deadbeef"
	first := c.order(hash)[0]
	first.noteHealth(false, nil)
	order := c.order(hash)
	if order[len(order)-1] != first {
		t.Error("an unhealthy owner does not rank last")
	}
}

// TestClusterEquivalenceNonRoundTripArea pins the area-unit contract:
// 0.8 mm² (like ~27% of float64 values) does not survive the mm²→m² unit
// conversion round trip — it drifts 1 ULP — so any path that re-encoded
// the spec between coordinator and worker would hash and evaluate a
// different area budget. Forwarding the client's own bytes keeps cluster
// output equal to single-node bit for bit for such areas under both
// strategies.
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
