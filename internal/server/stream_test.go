package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ivory/internal/core"
)

// ssePacket is one parsed server-sent event.
type ssePacket struct {
	name string
	data []byte
}

// parseSSE splits a complete text/event-stream body into events. The
// server always writes "event:" then "data:" then a blank line, one JSON
// object per data line, so a stricter parser than the SSE spec suffices —
// and anything else in the body is a wire-format bug worth failing on.
func parseSSE(t *testing.T, body []byte) []ssePacket {
	t.Helper()
	var out []ssePacket
	var cur ssePacket
	for _, line := range strings.Split(string(body), "\n") {
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" || cur.data != nil {
				if cur.name == "" || cur.data == nil {
					t.Fatalf("half-formed SSE event: name=%q data=%q", cur.name, cur.data)
				}
				out = append(out, cur)
				cur = ssePacket{}
			}
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return out
}

// TestStreamMatchesSynchronousExplore is the streaming acceptance test,
// run against the real engine: an adaptive exploration streamed over SSE
// emits at least two strictly-improving best-so-far events and exactly one
// terminal result event, and that terminal body is identical to a later
// synchronous POST /v1/explore for the same spec — the stream published
// its result to the cache, so the follow-up is a pure hit.
func TestStreamMatchesSynchronousExplore(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"search":"adaptive"}}`
	resp, raw := postJSON(t, ts.URL+"/v1/explore/stream", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d (%s)", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := parseSSE(t, raw)
	if len(events) == 0 {
		t.Fatal("empty stream")
	}

	var bests, results int
	var terminal ssePacket
	for i, ev := range events {
		switch ev.name {
		case "best":
			bests++
			var be StreamBestEvent
			if err := json.Unmarshal(ev.data, &be); err != nil {
				t.Fatalf("best event %d: %v (%s)", i, err, ev.data)
			}
			if be.Candidate.Label == "" || be.Evaluated <= 0 {
				t.Errorf("best event %d lacks candidate/telemetry: %s", i, ev.data)
			}
		case "progress":
			var pe StreamProgressEvent
			if err := json.Unmarshal(ev.data, &pe); err != nil {
				t.Fatalf("progress event %d: %v (%s)", i, err, ev.data)
			}
			if pe.Done > pe.Jobs || pe.Jobs <= 0 {
				t.Errorf("progress event %d out of range: %s", i, ev.data)
			}
		case "result":
			results++
			terminal = ev
			if i != len(events)-1 {
				t.Errorf("result event at index %d, want last (%d)", i, len(events)-1)
			}
		case "error":
			t.Fatalf("stream errored: %s", ev.data)
		default:
			t.Fatalf("unknown event %q", ev.name)
		}
	}
	if bests < 2 {
		t.Errorf("stream emitted %d best events, want >= 2", bests)
	}
	if results != 1 {
		t.Fatalf("stream emitted %d result events, want exactly 1", results)
	}

	// The stream writes compact JSON and the sync handler indents, so
	// compare the decoded values, not the bytes. The terminal event carries
	// the full candidate list, so ask the sync endpoint for the untrimmed
	// view (top: -1) of the same spec.
	syncReq := strings.Replace(body, `{"spec":`, `{"top":-1,"spec":`, 1)
	resp, syncBody := postJSON(t, ts.URL+"/v1/explore", syncReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync follow-up: %d (%s)", resp.StatusCode, syncBody)
	}
	var fromStream, fromSync any
	if err := json.Unmarshal(terminal.data, &fromStream); err != nil {
		t.Fatalf("terminal data: %v (%s)", err, terminal.data)
	}
	if err := json.Unmarshal(syncBody, &fromSync); err != nil {
		t.Fatalf("sync body: %v (%s)", err, syncBody)
	}
	if !reflect.DeepEqual(fromStream, fromSync) {
		t.Errorf("stream terminal result differs from synchronous body\nstream: %s\nsync:   %s", terminal.data, syncBody)
	}
	if hits, _ := s.cache.Stats(); hits != 1 {
		t.Errorf("sync follow-up was not a cache hit (hits=%d)", hits)
	}

	// The adaptive run pruned candidates and the counter reached /metrics.
	_, metricsBody := getJSON(t, ts.URL+"/metrics")
	m := parseExposition(string(metricsBody))
	if m[`ivoryd_candidates_pruned_total{strategy="bound"}`] <= 0 {
		t.Errorf("ivoryd_candidates_pruned_total not incremented after an adaptive stream")
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStreamCacheHitIsTerminalOnly: a spec already in the result cache
// streams as a bare terminal result without re-running the engine.
func TestStreamCacheHitIsTerminalOnly(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 2, EngineWorkers: 1})
	var calls atomic.Int64
	s.explore = func(sp core.Spec) (*core.Result, error) {
		calls.Add(1)
		return fakeExploreResult(sp, 2), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, body := postJSON(t, ts.URL+"/v1/explore", specBody(0.9)); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: %d (%s)", resp.StatusCode, body)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/explore/stream", specBody(0.9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d (%s)", resp.StatusCode, raw)
	}
	events := parseSSE(t, raw)
	if len(events) != 1 || events[0].name != "result" {
		t.Fatalf("cache-hit stream: got %d events in %q, want exactly one result", len(events), raw)
	}
	if calls.Load() != 1 {
		t.Errorf("cache-hit stream re-ran the engine (%d calls)", calls.Load())
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestStreamRejectsAsyncAndBadSpecs: stream admission validates like the
// synchronous endpoint and refuses the async flag outright.
func TestStreamRejectsAsyncAndBadSpecs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, EngineWorkers: 1})
	var calls atomic.Int64
	s.explore = func(sp core.Spec) (*core.Result, error) {
		calls.Add(1)
		return fakeExploreResult(sp, 1), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct{ name, body string }{
		{"async flag", `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2},"async":true}`},
		{"bad search", `{"spec":{"node":"45nm","vin_v":1.8,"vout_v":0.9,"imax_a":1,"area_mm2":2,"search":"greedy"}}`},
		{"not json", `hello`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/explore/stream", c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not an ErrorResponse", c.name, body)
		}
	}
	if calls.Load() != 0 {
		t.Errorf("rejected streams reached the engine %d times", calls.Load())
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}
