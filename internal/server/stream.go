package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ivory/internal/core"
)

// Streaming exploration: POST /v1/explore/stream runs one exploration on
// the shared worker pool and emits Server-Sent Events while it computes.
//
// Wire format (text/event-stream, one JSON object per data line):
//
//	event: progress   — StreamProgressEvent, sampled every progressStride
//	                    completed jobs (and at the final job)
//	event: best       — StreamBestEvent, once per strict improvement of
//	                    the best-so-far candidate under the objective
//	event: result     — ExploreResponse, terminal on success (also on a
//	                    ranked partial, with cancelled=true)
//	event: error      — ErrorResponse, terminal on failure
//
// Exactly one terminal event (result | error) ends every stream. The
// telemetry events are best-effort: a slow reader sheds progress/best
// events rather than stalling the engine, so consumers must treat them as
// a sampled view. A stream shares its spec hash, flight, and cache entry
// with POST /v1/explore: a later synchronous request returns the identical
// body without recomputing, and a stream that joins a cached or in-flight
// computation receives only the terminal event.

// progressStride samples the per-job progress callback down to one event
// every N completed jobs; the final job always emits.
const progressStride = 64

// StreamProgressEvent is the data payload of an SSE "progress" event.
type StreamProgressEvent struct {
	Jobs        int `json:"jobs"`
	Done        int `json:"done"`
	Evaluated   int `json:"evaluated"`
	Accepted    int `json:"accepted"`
	PrunedBound int `json:"pruned_bound"`
	FrontSize   int `json:"front_size"`
}

// StreamBestEvent is the data payload of an SSE "best" event: a new
// best-so-far candidate and the exploration state when it was found.
type StreamBestEvent struct {
	Candidate CandidateDTO `json:"candidate"`
	Evaluated int          `json:"evaluated"`
	Pruned    int          `json:"pruned"`
	FrontSize int          `json:"front_size"`
}

// sseEvent is one rendered server-sent event.
type sseEvent struct {
	name string
	data []byte
}

func jsonEvent(name string, v any) sseEvent {
	data, err := json.Marshal(v)
	if err != nil {
		// Payloads are our own DTOs; a marshal failure is a programming
		// error, surfaced rather than silently dropped.
		name, data = "error", []byte(fmt.Sprintf(`{"error":"marshal: %v"}`, err))
	}
	return sseEvent{name: name, data: data}
}

// openStream commits a text/event-stream response and returns its event
// writer.
func openStream(w http.ResponseWriter) func(sseEvent) {
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return func(ev sseEvent) {
		// The stream is committed; a write failure means the client left,
		// which the terminal-event guarantee does not extend to.
		_, _ = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// streamJob normalizes a stream exactly like an exploration — same spec,
// same key, same cached full-length result — and hooks this request's
// telemetry into the run. The run never blocks on the consumer: sends are
// lossy, so an abandoned stream drains and caches like a normal job.
func (s *Server) streamJob(req *ExploreRequest) (*job, error) {
	if req.Async {
		return nil, errors.New("stream and async are mutually exclusive: the stream is the progress feed")
	}
	events := make(chan sseEvent, 64)
	push := func(ev sseEvent) {
		select {
		case events <- ev:
		default: // slow or gone consumer: shed telemetry, never stall
		}
	}
	j, err := s.exploreJob(req, func(sp *core.Spec) {
		sp.Progress = func(st core.Stats) {
			if st.Done%progressStride == 0 || st.Done == st.Jobs {
				push(jsonEvent("progress", StreamProgressEvent{
					Jobs: st.Jobs, Done: st.Done,
					Evaluated: st.Evaluated(), Accepted: st.Accepted(),
					PrunedBound: st.PrunedBound, FrontSize: st.FrontSize,
				}))
			}
		}
		sp.OnImproved = func(c core.Candidate, st core.Stats) {
			push(jsonEvent("best", StreamBestEvent{
				Candidate: candidateDTO(c),
				Evaluated: st.Evaluated(), Pruned: st.Pruned(),
				FrontSize: st.FrontSize,
			}))
		}
	})
	if err != nil {
		return nil, err
	}
	j.events, j.view = events, nil
	return j, nil
}
