package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ivory/internal/numeric"
	"ivory/internal/soc"
)

// fakeSweepResult builds a small deterministic hybrid result for the
// engine stub.
func fakeSweepResult() *soc.SweepResult {
	return &soc.SweepResult{
		Floorplan: "stub",
		Rails:     []soc.Rail{{Kind: soc.OffChipVRM}, {Kind: soc.CentralizedIVR}},
		T:         10e-6, Dt: 5e-9,
		Cells: []soc.Cell{
			{Domain: "a", Rail: soc.Rail{Kind: soc.OffChipVRM}, Config: "off-chip VRM",
				NoiseVpp: 0.02, WorstDroop: 0.01, MarginV: 0.01, Efficiency: 0.8,
				PCoreW: 10, PSourceW: 12.5},
			{Domain: "a", Rail: soc.Rail{Kind: soc.CentralizedIVR}, Config: "centralized IVR",
				Infeasible: "stub: no fit"},
		},
		Candidates: []soc.Candidate{{
			Rails: []soc.Rail{{Kind: soc.OffChipVRM}}, Key: "a=vrm",
			Efficiency: 0.8, PCoreW: 10, PSourceW: 12.5, WorstMarginV: 0.01,
		}},
		Stats: soc.SweepStats{
			Cells: 2, CellsInfeasible: 1, Assignments: 2,
			Ranked: 1, RejectedInfeasible: 1,
		},
	}
}

// TestHybridCacheAndCounter pins the /v1/hybrid serving contract: the
// sweep runs once per spec hash (an identical resubmission is a cache
// hit), the response carries the ranked body, and the examined-assignment
// counter appears in /metrics by outcome.
func TestHybridCacheAndCounter(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, EngineWorkers: 1})
	var calls atomic.Int64
	s.hybrid = func(spec soc.SweepSpec) (*soc.SweepResult, error) {
		calls.Add(1)
		return fakeSweepResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"area_budget_mm2":25,"rails":["ivr","vrm"]}`
	resp, b := postJSON(t, ts.URL+"/v1/hybrid", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, b)
	}
	var hr HybridResponse
	if err := json.Unmarshal(b, &hr); err != nil {
		t.Fatalf("bad body %q: %v", b, err)
	}
	if hr.Best == nil || hr.Best.Assignment != "a=vrm" || hr.Best.Rank != 1 {
		t.Fatalf("bad best: %+v", hr.Best)
	}
	if len(hr.Cells) != 2 || hr.Cells[1].Infeasible == "" {
		t.Fatalf("bad cells: %+v", hr.Cells)
	}
	if hr.RequestHash == "" {
		t.Fatal("response lacked request_hash")
	}

	// Identical sweep, rails in the other order: same hash, pure cache hit.
	resp2, b2 := postJSON(t, ts.URL+"/v1/hybrid", `{"area_budget_mm2":25,"rails":["vrm","ivr"]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d (%s)", resp2.StatusCode, b2)
	}
	var hr2 HybridResponse
	if err := json.Unmarshal(b2, &hr2); err != nil {
		t.Fatal(err)
	}
	if hr2.RequestHash != hr.RequestHash {
		t.Errorf("rail order changed the hash: %s vs %s", hr2.RequestHash, hr.RequestHash)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("sweep ran %d times, want 1 (cache hit on resubmit)", got)
	}

	// A different budget is a different computation.
	if _, _ = postJSON(t, ts.URL+"/v1/hybrid", `{"area_budget_mm2":30}`); calls.Load() != 2 {
		t.Errorf("budget change should miss the cache (calls=%d)", calls.Load())
	}

	_, mb := getJSON(t, ts.URL+"/metrics")
	vals := parseExposition(string(mb))
	if got := vals[`ivoryd_hybrid_candidates_total{outcome="ranked"}`]; !numeric.ApproxEqual(got, 2, 0) {
		t.Errorf("ranked counter = %g, want 2 (one per compute, none on cache hits)", got)
	}
	if got := vals[`ivoryd_hybrid_candidates_total{outcome="rejected_infeasible"}`]; !numeric.ApproxEqual(got, 2, 0) {
		t.Errorf("rejected_infeasible counter = %g, want 2", got)
	}
}

// TestHybridHashSemantics pins what is and is not identity: Top, timeouts
// and async are views onto one computation; floorplan and engine inputs
// are not.
func TestHybridHashSemantics(t *testing.T) {
	base := HybridRequest{AreaBudgetMM2: 25, Rails: []string{"vrm", "ivr4"}}
	same := HybridRequest{AreaBudgetMM2: 25, Rails: []string{"ivr4", "vrm"}, Top: 50, TimeoutMS: 1000, Async: true}
	if base.Hash() != same.Hash() {
		t.Error("Top/TimeoutMS/Async/rail-order must not change the hash")
	}
	// Elided vs explicit defaults: the span/step defaults and a custom
	// floorplan's supply and seed hash as the values the sweep runs.
	dom := []HybridDomainDTO{{Name: "a", Cores: 1, TDPPerCoreW: 4, VNominalV: 0.85,
		GridROhm: 3e-3, GridLH: 50e-12, Benchmark: "CFD"}}
	for name, pair := range map[string][2]HybridRequest{
		"span/step": {base, {AreaBudgetMM2: 25, Rails: []string{"vrm", "ivr4"}, TUS: 10, DtNS: 5}},
		"floorplan": {{Domains: dom}, {Domains: dom, VSourceV: 3.3, Seed: 20170618}},
	} {
		if pair[0].Hash() == "" || pair[0].Hash() != pair[1].Hash() {
			t.Errorf("%s: elided defaults hash %q, explicit %q", name, pair[0].Hash(), pair[1].Hash())
		}
	}
	for name, other := range map[string]HybridRequest{
		"budget": {AreaBudgetMM2: 26, Rails: []string{"vrm", "ivr4"}},
		"rails":  {AreaBudgetMM2: 25, Rails: []string{"vrm", "ivr2"}},
		"span":   {AreaBudgetMM2: 25, Rails: []string{"vrm", "ivr4"}, TUS: 5},
		"domains": {AreaBudgetMM2: 25, Rails: []string{"vrm", "ivr4"},
			Domains: []HybridDomainDTO{{Name: "a", Cores: 1, TDPPerCoreW: 4, VNominalV: 0.85,
				GridROhm: 3e-3, GridLH: 50e-12, Benchmark: "CFD"}}},
	} {
		if other.Hash() == base.Hash() {
			t.Errorf("%s change must change the hash", name)
		}
	}
}

func TestHybridAsync(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, EngineWorkers: 1})
	s.hybrid = func(spec soc.SweepSpec) (*soc.SweepResult, error) {
		return fakeSweepResult(), nil
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/hybrid", `{"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d (%s), want 202", resp.StatusCode, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		t.Fatalf("bad 202 body %q (%v)", body, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, pb := getJSON(t, ts.URL+"/v1/jobs/"+job.ID)
		var js JobStatus
		if err := json.Unmarshal(pb, &js); err != nil {
			t.Fatalf("poll: %v (%s)", err, pb)
		}
		if js.Status == JobDone {
			if js.Result == nil {
				t.Fatal("done job carried no result")
			}
			rb, err := json.Marshal(js.Result)
			if err != nil {
				t.Fatal(err)
			}
			var hr HybridResponse
			if err := json.Unmarshal(rb, &hr); err != nil || hr.Best == nil {
				t.Fatalf("bad job result %s (%v)", rb, err)
			}
			return
		}
		if js.Status == JobError {
			t.Fatalf("job failed: %s", js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", js.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHybridBadRequests(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, EngineWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for name, body := range map[string]string{
		"bad rail":        `{"rails":["buck"]}`,
		"negative span":   `{"t_us":-1}`,
		"unknown bench":   `{"domains":[{"name":"a","cores":1,"tdp_per_core_w":4,"vnominal_v":0.85,"grid_r_ohm":0.003,"grid_l_h":5e-11,"benchmark":"NOPE"}]}`,
		"nameless domain": `{"domains":[{"cores":1,"tdp_per_core_w":4,"vnominal_v":0.85,"benchmark":"CFD"}]}`,
		"unknown field":   `{"railz":["vrm"]}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/hybrid", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, b)
		}
	}
}

// TestHybridEndToEnd exercises the production seam (the real sweep) on a
// deliberately tiny one-domain floorplan.
func TestHybridEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, EngineWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := `{
		"domains":[{"name":"cpu","cores":2,"tdp_per_core_w":5,"vnominal_v":0.85,
		            "grid_r_ohm":0.0035,"grid_l_h":5e-11,"benchmark":"CFD"}],
		"rails":["vrm","ivr"],
		"t_us":2,"dt_ns":5
	}`
	resp, b := postJSON(t, ts.URL+"/v1/hybrid", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, b)
	}
	var hr HybridResponse
	if err := json.Unmarshal(b, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Cells) != 2 || hr.Best == nil || hr.Stats.Assignments != 2 {
		t.Fatalf("unexpected result: %s", b)
	}
}
