package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ivory/internal/ivr"
	"ivory/internal/workload"
)

// The request pipeline. Every compute route runs the same stages:
//
//	decode → normalize → hash → admit (execute: cache, singleflight, queue)
//	       → async 202 | wait (streams: relay telemetry) → trim → render
//
// An endpoint supplies only its normalize step: decoded request in, job
// out — the exact engine input the compute runs, the key hashed from that
// input alone, and the request's view of the shared result. Requests that
// normalize to one engine input share one key, one flight, one cached body.
// On a coordinator, explorations stop after hash: the original body goes
// whole to the worker that owns the key (cluster.go).

// route is one compute endpoint's static profile. Every route's results
// are looked up in and published to the LRU, and a deadline with no
// partial result answers 504.
type route struct {
	name string // endpoint label on /metrics and async job records
	noun string // subject of interruption messages
	// failStatus answers an engine error of no known class: 500 where the
	// request was fully validated before admission, 400 where the engine
	// validates its own inputs.
	failStatus int
	// routed requests are forwarded whole to a worker on a coordinator.
	routed bool
}

var (
	exploreRoute   = &route{"explore", "exploration", http.StatusInternalServerError, true}
	streamRoute    = &route{"explore_stream", "exploration", http.StatusInternalServerError, true}
	transientRoute = &route{"transient", "transient sweep", http.StatusBadRequest, false}
	hybridRoute    = &route{"hybrid", "hybrid sweep", http.StatusBadRequest, false}
)

// failure maps a pipeline error to its status and message; fallback
// answers an error of no known class.
func (rt *route) failure(err error, fallback int) (int, string) {
	var inf *ivr.InfeasibleError
	switch {
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests, "job queue full; retry shortly"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "server draining"
	case errors.As(err, &inf):
		// The space was swept and nothing fits the budget: a valid question
		// with an unwelcome answer, not a server fault.
		return http.StatusUnprocessableEntity, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, rt.noun + " exceeded its deadline"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, rt.noun + " cancelled (server draining)"
	}
	return fallback, err.Error()
}

func (s *Server) fail(w http.ResponseWriter, rt *route, err error, fallback int) {
	code, msg := rt.failure(err, fallback)
	s.writeError(w, code, msg)
}

// job is one normalized request.
type job struct {
	key  string        // identity hashed from the normalized engine input
	run  jobFunc       // computes the shared result on a pool worker
	view func(any) any // trims the shared result for this request; nil keeps it whole
	// events, when non-nil, makes the request a stream: the run pushes
	// telemetry into it, lossily, while the flight is unresolved.
	events    chan sseEvent
	timeoutMS int
	async     bool
}

// compute builds a compute route's handler: decode the body strictly
// into a fresh Req, normalize it into a job, then serve the job — or, for
// a routed request on a coordinator, forward the body to its worker, so
// bad input still gets its 400 here at the edge.
func compute[Req any](s *Server, rt *route, normalize func(*Req) (*job, error)) http.HandlerFunc {
	return s.instrument(rt.name, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		var req Req
		dec := json.NewDecoder(bytes.NewReader(body))
		// Unknown fields are a 400, keeping the DTO schema load-bearing
		// instead of advisory.
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		j, err := normalize(&req)
		if err != nil {
			s.fail(w, rt, err, http.StatusBadRequest)
			return
		}
		if rt.routed && s.cluster != nil {
			s.forward(w, r, rt, j.key, body)
			return
		}
		s.serve(w, r, rt, j)
	})
}

// serve admits a job, then answers with a 202 job record, or waits on the
// flight and renders the trimmed result — as a JSON body, or as the
// terminal event of a stream after the telemetry the run pushed.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, rt *route, j *job) {
	fl, err := s.execute(rt, j.key, s.timeoutFor(j.timeoutMS), j.run)
	if err != nil {
		s.fail(w, rt, err, http.StatusInternalServerError)
		return
	}
	if j.async {
		rec := &jobRecord{id: newJobID(), kind: rt.name, hash: j.key, status: JobRunning, created: time.Now()}
		s.jobs.add(rec)
		go func() { rec.complete(fl.wait()) }()
		writeJSON(w, http.StatusAccepted, rec.snapshot())
		return
	}
	var emit func(sseEvent)
	if j.events != nil {
		emit = openStream(w)
	}
wait:
	for {
		select {
		case ev := <-j.events: // nil channel for plain requests: never ready
			emit(ev)
		case <-fl.done:
			break wait
		case <-r.Context().Done():
			// Client gone: the job keeps computing and caches its result;
			// only this request ends.
			if emit == nil {
				s.writeError(w, http.StatusGatewayTimeout,
					"request abandoned while the computation runs; retry to pick up the result")
			}
			return
		}
	}
	// Every push happens inside the run, before the flight resolves, so the
	// telemetry still owed is already buffered.
	for len(j.events) > 0 {
		emit(<-j.events)
	}
	val, err := fl.wait()
	if err != nil && val == nil {
		if emit != nil {
			_, msg := rt.failure(err, rt.failStatus)
			emit(jsonEvent("error", ErrorResponse{Error: msg}))
			return
		}
		s.fail(w, rt, err, rt.failStatus)
		return
	}
	if j.view != nil {
		val = j.view(val)
	}
	// val with a cancel-shaped err is a ranked partial (deadline, drain):
	// a 200 with cancelled=true and the error inline.
	if emit != nil {
		emit(jsonEvent("result", val))
		return
	}
	writeJSON(w, http.StatusOK, val)
}

// fieldHash is the one identity writer behind every request key: FNV-1a
// over "name=value" fields joined by ';' in the caller's fixed order,
// floats in shortest round-trip form, lists as fmt prints them (strings
// %q-quoted, so no element can forge a separator). Callers feed it
// normalized engine inputs; it re-derives no default.
type fieldHash struct{ b []byte }

func (f *fieldHash) str(name, v string) {
	if len(f.b) > 0 {
		f.b = append(f.b, ';')
	}
	f.b = append(append(append(f.b, name...), '='), v...)
}

func (f *fieldHash) float(name string, v float64) { f.str(name, strconv.FormatFloat(v, 'g', -1, 64)) }

func (f *fieldHash) int(name string, v int64) { f.str(name, strconv.FormatInt(v, 10)) }

func (f *fieldHash) sum() string {
	return fmt.Sprintf("%016x", workload.FNV1aString(workload.FNVOffset64, string(f.b)))
}
