// Command ivoryd is the Ivory exploration daemon: a long-running HTTP/JSON
// service wrapping the design-space exploration and transient case-study
// engines behind a bounded job queue, an LRU result cache with singleflight
// coalescing, Prometheus-style metrics, and a graceful SIGTERM drain.
//
// Usage:
//
//	ivoryd [-addr :7077] [-workers 2] [-engine-workers 0] [-queue 16]
//	       [-cache 128] [-timeout 60s] [-drain-timeout 30s] [-job-history 256]
//	       [-job-ttl 15m] [-role single|worker|coordinator]
//	       [-cluster-workers http://w1,http://w2] [-health-interval 2s]
//
// Endpoints:
//
//	POST /v1/explore    design-space exploration (async with "async": true)
//	POST /v1/explore/stream  the same exploration as live SSE telemetry
//	POST /v1/transient  workload-driven transient noise sweep
//	POST /v1/hybrid     per-domain rail assignment sweep over an SoC
//	                    floorplan (hybrid power delivery under an area
//	                    budget; async with "async": true)
//	GET  /v1/cluster    cluster role; on a coordinator, worker health and
//	                    forward latency/failover telemetry
//	GET  /v1/jobs/{id}  poll an async job
//	GET  /healthz       200 ok | 503 draining
//	GET  /metrics       Prometheus text exposition
//
// Cluster mode: start replicas with -role=worker, then a coordinator with
// -role=coordinator -cluster-workers=http://w1:7077,http://w2:7077. The
// coordinator validates each exploration (sync, async or streamed) and
// forwards it whole to the worker that owns its spec hash in rendezvous
// order, relaying the worker's answer byte for byte, so repeats of a spec
// hit that worker's result cache. A transport error, 5xx or 429 fails
// over to the next worker; when every worker fails the answer is 503 with
// Retry-After. Async job polls the coordinator does not hold itself are
// asked of the workers. Transient and hybrid sweeps run on the coordinator.
//
// On SIGTERM/SIGINT the daemon stops admission (healthz flips to
// draining), drains in-flight jobs within -drain-timeout — cancelling
// stragglers so explorations return their ranked partial results — and
// exits 0 on a clean drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ivory/internal/server"
)

func main() {
	addr := flag.String("addr", ":7077", "listen address (host:port; :0 picks a free port)")
	workers := flag.Int("workers", 0, "concurrent jobs (0 = default: 2)")
	engineWorkers := flag.Int("engine-workers", 0, "engine worker goroutines per job (0 = NumCPU/workers)")
	queue := flag.Int("queue", 0, "pending-job queue depth before 429s (0 = default: 16)")
	cache := flag.Int("cache", 0, "LRU result-cache entries (0 = default: 128, negative disables)")
	timeout := flag.Duration("timeout", 0, "per-job compute deadline (0 = default: 60s)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	jobHistory := flag.Int("job-history", 0, "async job records retained (0 = default: 256)")
	jobTTL := flag.Duration("job-ttl", 0, "retention window for finished async job records; polling past it returns 404 (0 = default: 15m, negative disables)")
	role := flag.String("role", "", "cluster role: single (default), worker, or coordinator")
	clusterWorkers := flag.String("cluster-workers", "", "comma-separated worker base URLs (coordinator mode)")
	healthInterval := flag.Duration("health-interval", 0, "worker health-check cadence (0 = default: 2s)")
	flag.Parse()

	switch *role {
	case "", "single", "worker", "coordinator":
	default:
		fmt.Fprintf(os.Stderr, "ivoryd: unknown -role %q (want single|worker|coordinator)\n", *role)
		os.Exit(2)
	}
	var cluster *server.ClusterConfig
	if *clusterWorkers != "" {
		var urls []string
		for _, u := range strings.Split(*clusterWorkers, ",") {
			if u = strings.TrimSpace(strings.TrimSuffix(u, "/")); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "ivoryd: -cluster-workers has no usable URLs")
			os.Exit(2)
		}
		cluster = &server.ClusterConfig{Workers: urls, HealthInterval: *healthInterval}
	} else if *role == "coordinator" {
		fmt.Fprintln(os.Stderr, "ivoryd: -role=coordinator requires -cluster-workers")
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		EngineWorkers:  *engineWorkers,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
		JobHistory:     *jobHistory,
		JobTTL:         *jobTTL,
		Role:           *role,
		Cluster:        cluster,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ivoryd:", err)
		os.Exit(1)
	}
	// The smoke harness parses this line to find a :0-assigned port; keep
	// the format stable.
	fmt.Printf("ivoryd: listening on %s\n", l.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	shutdownErr := make(chan error, 1)
	go func() {
		sig := <-sigs
		fmt.Printf("ivoryd: %v received, draining (up to %s)\n", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	serveErr := srv.Serve(l)
	if serveErr != nil && serveErr != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "ivoryd:", serveErr)
		os.Exit(1)
	}
	if err := <-shutdownErr; err != nil {
		fmt.Fprintln(os.Stderr, "ivoryd: drain incomplete:", err)
		os.Exit(1)
	}
	fmt.Println("ivoryd: drained cleanly")
}
