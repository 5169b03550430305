package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ivory/internal/core"
	"ivory/internal/experiments"
)

// echoTransient stubs the transient engine with one cell per benchmark ×
// configuration, in exactly the order the engine receives them.
func echoTransient(_ context.Context, o experiments.TransientOptions) (*experiments.Fig10Result, error) {
	res := &experiments.Fig10Result{Configs: o.Configs}
	for _, b := range o.Benchmarks {
		for _, c := range o.Configs {
			res.Cells = append(res.Cells, experiments.Fig10Cell{Benchmark: b, Config: strconv.Itoa(c)})
		}
	}
	res.RunStats.Cells, res.RunStats.Done = len(res.Cells), len(res.Cells)
	return res, nil
}

// TestTransientCanonicalIdentity: an equal request hash means an equal
// body. Benchmark and config lists are sets — listing order and repeats
// normalize away before the engine sees them — and an elided span or step
// is the same request as the spelled-out default.
func TestTransientCanonicalIdentity(t *testing.T) {
	// No cache: every body below is computed, so equal bodies come from
	// equal engine inputs, not from a cached first answer.
	s := New(Config{Workers: 1, QueueDepth: 4, EngineWorkers: 1, CacheEntries: -1})
	s.transient = echoTransient
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(body string) TransientResponse {
		t.Helper()
		resp, b := postJSON(t, ts.URL+"/v1/transient", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", body, resp.StatusCode, b)
		}
		var tr TransientResponse
		if err := json.Unmarshal(b, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	_, ab := postJSON(t, ts.URL+"/v1/transient", `{"t_us":2,"benchmarks":["CFD","BFS2"],"configs":[4,0]}`)
	_, ba := postJSON(t, ts.URL+"/v1/transient", `{"t_us":2,"benchmarks":["BFS2","CFD"],"configs":[0,4]}`)
	if string(ab) != string(ba) {
		t.Errorf("reordered sets gave different bodies:\n%s\n%s", ab, ba)
	}
	tr := post(`{"t_us":2,"benchmarks":["CFD","BFS2"],"configs":[4,0]}`)
	if got := tr.Cells[0].Benchmark + "/" + tr.Cells[0].Config; got != "BFS2/0" {
		t.Errorf("first cell %s, want the canonical BFS2/0", got)
	}

	if a, b := post(`{}`).RequestHash, post(`{"t_us":20,"dt_ns":1}`).RequestHash; a != b {
		t.Errorf("elided defaults hash %s, explicit defaults %s", a, b)
	}

	dup := post(`{"benchmarks":["CFD","CFD"],"configs":[1,1,2]}`)
	if len(dup.Cells) != 2 || dup.Stats.Cells != 2 {
		t.Errorf("repeated benchmark/config: %d cells (%+v), want 2", len(dup.Cells), dup.Cells)
	}
	if dup.RequestHash != post(`{"benchmarks":["CFD"],"configs":[2,1]}`).RequestHash {
		t.Error("repeats changed the request hash")
	}
}

// TestStreamJoiningInFlightGetsTerminalOnly: a stream and a synchronous
// exploration of one spec share one flight. The stream that joins the
// computation another request leads receives no telemetry of its own,
// only the terminal result, identical to the leader's body.
func TestStreamJoiningInFlightGetsTerminalOnly(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	release := make(chan struct{})
	var calls atomic.Int64
	s.explore = func(sp core.Spec) (*core.Result, error) {
		calls.Add(1)
		<-release
		res := fakeExploreResult(sp, 2)
		if sp.OnImproved != nil {
			sp.OnImproved(res.Candidates[0], res.Stats)
		}
		return res, nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	lead := make(chan []byte, 1)
	go func() {
		_, b := postJSON(t, ts.URL+"/v1/explore", `{"top":-1,"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2}}`)
		lead <- b
	}()
	waitFor(t, "the leader's flight", func() bool { return s.flights.Inflight() > 0 })
	stream := make(chan []byte, 1)
	go func() {
		_, b := postJSON(t, ts.URL+"/v1/explore/stream", specBody(0.9))
		stream <- b
	}()
	joined := waitFor(t, "the stream to join the flight", func() bool { return s.flights.Coalesced() > 0 })
	close(release)
	if !joined {
		return
	}

	events := parseSSE(t, <-stream)
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("joined stream: %d events %v, want the terminal result alone", len(events), events)
	}
	var fromStream, fromSync any
	if err := json.Unmarshal(events[0].data, &fromStream); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(<-lead, &fromSync); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream, fromSync) {
		t.Errorf("stream terminal differs from the leader's body")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("engine ran %d times, want 1", n)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// waitFor polls cond for up to 5 s, reporting an error if it never holds.
func waitFor(t *testing.T, what string, cond func() bool) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("timed out waiting for %s", what)
			return false
		}
	}
	return true
}
