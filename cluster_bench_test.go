package ivory

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ivory/internal/server"
)

// Cluster-mode overhead harness: the same full exhaustive sweep sent
// serially, uncached, to one worker replica directly versus through a
// coordinator over two replicas. The coordinator forwards each
// exploration whole to the worker that owns its spec hash and relays the
// answer, so one serial stream of one spec runs on one worker either way
// and the cluster row is the single-node row plus one relay hop (a few
// hundred µs for the ~2 KB top-1 body). A coordinator adds throughput
// only when concurrent requests for different specs spread over the
// workers; this pair pins the hop's cost, not that gain.
const clusterBenchBody = `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"top":1}`

// bootBenchWorker starts one single-slot worker replica with caching off,
// so every iteration recomputes instead of replaying the LRU.
func bootBenchWorker(b *testing.B) *httptest.Server {
	s := server.New(server.Config{Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1, Role: "worker"})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return ts
}

func exploreOverHTTP(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(clusterBenchBody))
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("explore: %d", resp.StatusCode)
	}
}

func BenchmarkExploreClusterSingleNode(b *testing.B) {
	ts := bootBenchWorker(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exploreOverHTTP(b, ts.URL)
	}
}

func BenchmarkExploreCluster2Workers(b *testing.B) {
	w1, w2 := bootBenchWorker(b), bootBenchWorker(b)
	coord := server.New(server.Config{
		Workers: 1, QueueDepth: 64, EngineWorkers: 1, CacheEntries: -1,
		Cluster: &server.ClusterConfig{Workers: []string{w1.URL, w2.URL}},
	})
	ts := httptest.NewServer(coord.Handler())
	b.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exploreOverHTTP(b, ts.URL)
	}
}
