package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ivory/internal/core"
	"ivory/internal/soc"
)

// byteSource deals bounded choices from fuzz bytes; exhausted, it deals 0.
type byteSource []byte

func (b *byteSource) pick(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// one draws a scalar field: cls picks the value class, sp one of the
// class's spellings. Every spelling of a class must normalize alike.
func one[T any](cls, sp *byteSource, classes [][]T) T {
	c := classes[cls.pick(len(classes))]
	return c[sp.pick(len(c))]
}

// set draws a set-valued field: cls picks which menu elements are present,
// sp how each is spelled (alias, one or two copies), the listing order,
// and whether an empty list is null or []. full marks a field whose empty
// spelling selects the whole menu.
func set[T any](cls, sp *byteSource, menu [][]T, full bool) []T {
	mask := cls.pick(1 << len(menu))
	var out []T
	for i, aliases := range menu {
		if mask&(1<<i) == 0 {
			continue
		}
		for n := 1 + sp.pick(2); n > 0; n-- {
			out = append(out, aliases[sp.pick(len(aliases))])
		}
	}
	if full && mask == 1<<len(menu)-1 && sp.pick(2) == 0 {
		out = nil
	}
	for i := len(out) - 1; i > 0; i-- {
		j := sp.pick(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	if len(out) == 0 && sp.pick(2) == 0 {
		return []T{}
	}
	return out
}

func drawSpec(cls, sp *byteSource) SpecDTO {
	vout := one(cls, sp, [][]float64{{0.9}, {1.0}})
	return SpecDTO{
		Node:            "45nm",
		VInV:            one(cls, sp, [][]float64{{1.8}, {3.3}}),
		VOutV:           vout,
		IMaxA:           one(cls, sp, [][]float64{{1}, {2}}),
		AreaMM2:         one(cls, sp, [][]float64{{2}, {4}}),
		RippleMaxV:      one(cls, sp, [][]float64{{0, 0.01 * vout}, {0.02}}),
		Objective:       one(cls, sp, [][]string{{"", "eff", "max-efficiency", "Efficiency"}, {"area", "min-area"}}),
		EfficiencyFloor: one(cls, sp, [][]float64{{0, 0.25}, {0.5}}),
		Kinds:           set(cls, sp, [][]string{{"SC", "sc"}, {"buck", "BUCK"}, {"LDO", "ldo"}}, true),
		FSwMaxHz:        one(cls, sp, [][]float64{{0, 1e9}, {5e8}}),
		Search:          one(cls, sp, [][]string{{"", "exhaustive", "full"}, {"adaptive", "pruned"}}),
	}
}

// drawView draws the per-request fields that are not identity.
func drawView(sp *byteSource) (top, timeoutMS int, async bool) {
	return []int{0, 3, -1}[sp.pick(3)], []int{0, 500, 1e6}[sp.pick(3)], sp.pick(2) == 1
}

// fuzzRoutes pairs each compute route with a request generator and the
// normalize step the route runs: the normalized engine input and its key.
var fuzzRoutes = []struct {
	path      string
	draw      func(cls, sp *byteSource) any
	normalize func(s *Server, req any) (any, string, error)
}{
	{
		"/v1/explore",
		func(cls, sp *byteSource) any {
			r := &ExploreRequest{Spec: drawSpec(cls, sp)}
			r.Top, r.TimeoutMS, r.Async = drawView(sp)
			return r
		},
		func(s *Server, req any) (any, string, error) {
			r := req.(*ExploreRequest)
			j, err := s.exploreJob(r, nil)
			if err != nil {
				return nil, "", err
			}
			norm, err := normalizeSpec(r.Spec)
			return norm, j.key, err
		},
	},
	{
		"/v1/explore/stream",
		func(cls, sp *byteSource) any {
			r := &ExploreRequest{Spec: drawSpec(cls, sp)}
			r.Top, r.TimeoutMS, _ = drawView(sp)
			return r
		},
		func(s *Server, req any) (any, string, error) {
			r := req.(*ExploreRequest)
			j, err := s.streamJob(r)
			if err != nil {
				return nil, "", err
			}
			norm, err := normalizeSpec(r.Spec)
			return norm, j.key, err
		},
	},
	{
		"/v1/transient",
		func(cls, sp *byteSource) any {
			r := &TransientRequest{
				TUS:        one(cls, sp, [][]float64{{0, 20}, {5}}),
				DtNS:       one(cls, sp, [][]float64{{0, 1}, {2}}),
				Benchmarks: set(cls, sp, [][]string{{"CFD"}, {"BFS2"}, {"LUD"}}, false),
				Configs:    set(cls, sp, [][]int{{0}, {1}, {2}, {4}}, false),
			}
			_, r.TimeoutMS, r.Async = drawView(sp)
			return r
		},
		func(s *Server, req any) (any, string, error) {
			r := req.(*TransientRequest)
			j, err := s.transientJob(r)
			if err != nil {
				return nil, "", err
			}
			return r.Options(0), j.key, nil
		},
	},
	{
		"/v1/hybrid",
		func(cls, sp *byteSource) any {
			r := &HybridRequest{
				AreaBudgetMM2: one(cls, sp, [][]float64{{0}, {25}}),
				Rails:         set(cls, sp, [][]string{{"vrm", "off-chip"}, {"ivr", "ivr1"}, {"ivr2"}, {"ivr4"}, {"ldo", "LDO"}}, true),
				TUS:           one(cls, sp, [][]float64{{0, 10}, {5}}),
				DtNS:          one(cls, sp, [][]float64{{0, 5}, {2}}),
			}
			if cls.pick(2) == 1 {
				r.Domains = []HybridDomainDTO{{
					Name: "cpu", Cores: one(cls, sp, [][]int{{1}, {2}}), TDPPerCoreW: 4, VNominalV: 0.85,
					GridROhm: 3e-3, GridLH: 50e-12, Benchmark: one(cls, sp, [][]string{{"CFD"}, {"BFS2"}}),
					Seed: one(cls, sp, [][]int64{{0}, {7}}),
				}}
				r.VSourceV = one(cls, sp, [][]float64{{0, 3.3}, {1.8}})
				r.Seed = one(cls, sp, [][]int64{{0, 20170618}, {11}})
			} else {
				// Ignored without custom domains: spelling, not identity.
				r.VSourceV, r.Seed = []float64{0, 1.8}[sp.pick(2)], []int64{0, 11}[sp.pick(2)]
			}
			r.Top, r.TimeoutMS, r.Async = drawView(sp)
			return r
		},
		func(s *Server, req any) (any, string, error) {
			r := req.(*HybridRequest)
			j, err := s.hybridJob(r)
			if err != nil {
				return nil, "", err
			}
			norm, err := r.ToSpec()
			return norm, j.key, err
		},
	},
}

// FuzzRequestIdentity pins the pipeline's identity contract on every
// compute route. From the class bytes a and spelling bytes b it draws
// r1 = (a, b), a respelling r2 = (a, reversed b) — shuffled sets, repeats
// and aliases, elided or explicit defaults, other top/timeout_ms/async —
// and an unrelated r3 = (b, a). Spellings of one request must normalize to
// one engine input and one key, and for any two requests equal normalized
// inputs must coincide with equal keys. Both body and r1 then go through
// the full HTTP pipeline, which must answer 400 or a response and never
// panic.
func FuzzRequestIdentity(f *testing.F) {
	s := New(Config{Workers: 2, QueueDepth: 64, EngineWorkers: 1, RequestTimeout: 5 * time.Second})
	s.explore = func(sp core.Spec) (*core.Result, error) { return fakeExploreResult(sp, 2), nil }
	s.transient = echoTransient
	s.hybrid = func(soc.SweepSpec) (*soc.SweepResult, error) { return fakeSweepResult(), nil }
	h := s.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	f.Fuzz(func(t *testing.T, route uint8, a, b, body []byte) {
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		rev := make([]byte, len(b))
		for i, c := range b {
			rev[len(b)-1-i] = c
		}
		draw := func(cls, sp []byte) any {
			c, p := byteSource(cls), byteSource(sp)
			return rt.draw(&c, &p)
		}
		r1, r2, r3 := draw(a, b), draw(a, rev), draw(b, a)
		n1, k1, err1 := rt.normalize(s, r1)
		n2, k2, err2 := rt.normalize(s, r2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: respelling changed validity: %v vs %v", rt.path, err1, err2)
		}
		if err1 == nil && (!reflect.DeepEqual(n1, n2) || k1 != k2) {
			t.Fatalf("%s: one request, two identities\nr1 %+v -> %s\nr2 %+v -> %s", rt.path, r1, k1, r2, k2)
		}
		if n3, k3, err3 := rt.normalize(s, r3); err1 == nil && err3 == nil && reflect.DeepEqual(n1, n3) != (k1 == k3) {
			t.Fatalf("%s: normalized equal=%v but keys %s, %s\nr1 %+v\nr3 %+v", rt.path, reflect.DeepEqual(n1, n3), k1, k3, r1, r3)
		}

		valid, err := json.Marshal(r1)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{body, valid} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(in)))
			switch c := rec.Code; {
			case c == http.StatusBadRequest:
				var er ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
					t.Fatalf("%s: 400 without an error body: %q", rt.path, rec.Body.Bytes())
				}
			case c < 300, c == http.StatusUnprocessableEntity, c == http.StatusTooManyRequests:
			default:
				t.Fatalf("%s %q: status %d: %s", rt.path, in, c, rec.Body.Bytes())
			}
		}
		if n := s.panics.Load(); n != 0 {
			t.Fatalf("%d job panics", n)
		}
	})
}
