package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one op share a
// trace ID; ParentID links a call to the span that made it (0 for the op's
// root). Times are nanoseconds since the tracer started.
type span struct {
	TraceID  uint64           `json:"trace_id"`
	SpanID   uint64           `json:"span_id"`
	ParentID uint64           `json:"parent_id"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory for the length of a traced phase; they are
// written out once it ends, so recording a span costs one append under a
// mutex. A nil *tracer records nothing, which is how untraced phases run
// the same code.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	next  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// active is an open span; nil when tracing is off.
type active struct {
	t *tracer
	s span
}

func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.base)) }

// root opens the top-level span of one op; its ID doubles as the trace ID.
func (t *tracer) root(name string) *active {
	if t == nil {
		return nil
	}
	id := t.newID()
	return &active{t: t, s: span{TraceID: id, SpanID: id, Name: name, StartNS: t.ns(time.Now())}}
}

// child opens a span caused by a.
func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, s: span{TraceID: a.s.TraceID, SpanID: a.t.newID(), ParentID: a.s.SpanID, Name: name, StartNS: a.t.ns(time.Now())}}
}

// end closes the span with its counts.
func (a *active) end(counts map[string]int64) {
	if a == nil {
		return
	}
	a.s.EndNS = a.t.ns(time.Now())
	a.s.Counts = counts
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// addChild records a child interval measured elsewhere (an HTTP exchange
// timed by the load generator).
func (a *active) addChild(name string, start, end time.Time, counts map[string]int64) {
	if a == nil {
		return
	}
	s := span{TraceID: a.s.TraceID, SpanID: a.t.newID(), ParentID: a.s.SpanID, Name: name,
		StartNS: a.t.ns(start), EndNS: a.t.ns(end), Counts: counts}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// setStart moves the span's start (an open-loop op starts when it was due,
// before the generator got to it).
func (a *active) setStart(at time.Time) {
	if a != nil {
		a.s.StartNS = a.t.ns(at)
	}
}

// snapshot returns the recorded spans in recording order.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			_ = f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// selfTimes sums, per span name, each span's duration minus the part of
// that interval its children cover, and counts the spans.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.ParentID != 0 {
			kids[s.ParentID] = append(kids[s.ParentID], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range spans {
		ivs := kids[s.SpanID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		var covered, reach int64
		reach = s.StartNS
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
		count[s.Name]++
	}
	return self, count
}

// printSelfTimes writes the self-time breakdown of a traced phase, largest
// first, so a reader sees where the time went.
func printSelfTimes(w io.Writer, spans []span) {
	var b strings.Builder
	self, count := selfTimes(spans)
	names := make([]string, 0, len(self))
	var total time.Duration
	for n, d := range self {
		names = append(names, n)
		total += d
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(&b, "%-28s %8s %12s %7s\n", "span", "count", "self_ms", "share")
	for _, n := range names {
		fmt.Fprintf(&b, "%-28s %8d %12.3f %6.1f%%\n", n, count[n], millis(self[n]), 100*div(float64(self[n]), float64(total)))
	}
	_, _ = io.WriteString(w, b.String())
}
