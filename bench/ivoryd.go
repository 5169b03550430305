package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ivory/internal/core"
	"ivory/internal/server"
)

// The load generator is one process holding at most maxConns connections
// to a daemon: the host has two CPUs, so more connections would only add
// client-side contention.
const maxConns = 2

// httpClient is the load generator's HTTP client.
type httpClient struct{ c *http.Client }

func newHTTPClient() *httpClient {
	return &httpClient{c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do sends one request and reads the whole response body.
func (h *httpClient) do(method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrape reads a daemon's /metrics exposition as "name{labels}" → value.
func (h *httpClient) scrape(base string) (map[string]float64, error) {
	code, body, err := h.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// family sums a metric family over its label sets.
func family(m map[string]float64, name string) float64 {
	sum := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// handlerSeconds returns the request-duration histogram's sum and count
// for one endpoint.
func handlerSeconds(m map[string]float64, endpoint string) (sum, count float64) {
	label := `{endpoint="` + endpoint + `"}`
	return m["ivoryd_request_duration_seconds_sum"+label], m["ivoryd_request_duration_seconds_count"+label]
}

// waitReady polls /healthz — and on a coordinator /v1/cluster, until every
// worker passes its health check — for up to 15 s.
func waitReady(h *httpClient, base string, cluster bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if code, _, err := h.do(http.MethodGet, base+"/healthz", nil); err == nil && code == http.StatusOK {
			if !cluster {
				return nil
			}
			code, body, err := h.do(http.MethodGet, base+"/v1/cluster", nil)
			var cr server.ClusterResponse
			if err == nil && code == http.StatusOK && json.Unmarshal(body, &cr) == nil && len(cr.Workers) > 0 {
				healthy := true
				for _, wk := range cr.Workers {
					healthy = healthy && wk.Healthy
				}
				if healthy {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ivoryd at %s not ready within 15s", base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func snippet(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}

// topDefault is the candidate count ivoryd returns when a request sets no
// top.
const topDefault = 10

// checkExploreWire holds the exploration invariants on a wire response:
// the spec hash is the one computed locally from the normalized spec, the
// best candidate heads a list ranked by efficiency within (0, 100] %,
// every design fits the area budget, and every job completed.
func checkExploreWire(r *server.ExploreResponse, wantHash string, areaMM2 float64, trimmed bool) error {
	if r.SpecHash != wantHash {
		return fmt.Errorf("spec_hash %s, want %s", r.SpecHash, wantHash)
	}
	if r.Cancelled || r.Incomplete || r.Error != "" {
		return fmt.Errorf("partial result: %s", r.Error)
	}
	if len(r.Candidates) == 0 || r.Best == nil || *r.Best != r.Candidates[0] {
		return errors.New("best is not candidates[0]")
	}
	if (trimmed && len(r.Candidates) > topDefault) || r.TotalCandidates < len(r.Candidates) {
		return fmt.Errorf("%d candidates of %d total", len(r.Candidates), r.TotalCandidates)
	}
	if r.Stats.Done != r.Stats.Jobs {
		return fmt.Errorf("%d of %d jobs done", r.Stats.Done, r.Stats.Jobs)
	}
	for j, c := range r.Candidates {
		if !(c.EfficiencyPct > 0 && c.EfficiencyPct <= 100) {
			return fmt.Errorf("candidate %d efficiency %g%%", j, c.EfficiencyPct)
		}
		// m² → mm² on the wire can round up by an ulp.
		if c.AreaMM2 > areaMM2*(1+1e-12) {
			return fmt.Errorf("candidate %d area %g mm2 over the %g mm2 budget", j, c.AreaMM2, areaMM2)
		}
		if j > 0 && c.EfficiencyPct > r.Candidates[j-1].EfficiencyPct {
			return fmt.Errorf("candidate %d outranks candidate %d", j, j-1)
		}
	}
	return nil
}

// wireIdentity is the part of an exploration response that must be
// byte-identical however it was computed; stats carry wall times.
type wireIdentity struct {
	SpecHash   string                `json:"spec_hash"`
	Spec       server.SpecDTO        `json:"spec"`
	Best       *server.CandidateDTO  `json:"best"`
	Candidates []server.CandidateDTO `json:"candidates"`
	Total      int                   `json:"total_candidates"`
	Rejected   int                   `json:"rejected"`
}

func identityOf(r *server.ExploreResponse) ([]byte, error) {
	return json.Marshal(wireIdentity{r.SpecHash, r.Spec, r.Best, r.Candidates, r.TotalCandidates, r.Rejected})
}

// crossItem is a wire response kept for the in-process cross-check that
// runs after the measured window.
type crossItem struct {
	spec    server.SpecDTO
	resp    *server.ExploreResponse
	trimmed bool
	phase   *phase
}

// crossCheckWire recomputes the exploration in-process and requires the
// wire response to match ExploreResponseFromResult byte for byte.
func crossCheckWire(c crossItem) error {
	norm, err := normalized(c.spec)
	if err != nil {
		return err
	}
	res, err := core.Explore(norm)
	if err != nil {
		return err
	}
	local := server.ExploreResponseFromResult(res, nil)
	if c.trimmed {
		local = local.Trimmed(0)
	}
	a, err := identityOf(c.resp)
	if err != nil {
		return err
	}
	b, err := identityOf(local)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("wire response for spec %s differs from the in-process result", c.resp.SpecHash)
	}
	return nil
}

func runCrossChecks(items []crossItem) {
	for _, c := range items {
		if err := crossCheckWire(c); err != nil {
			c.phase.fail(fmt.Errorf("cross-check: %w", err))
		}
	}
}

// serverWorkload is a workload run against ivoryd processes.
type serverWorkload interface {
	digest() string
	// start launches the fleet and returns once it is ready: every process
	// healthy and one untimed op of every op type done.
	start(cfg config, stderr io.Writer) (*fleet, error)
	run(cfg config, fl *fleet, stderr io.Writer) (*outcome, error)
}

func newServerWorkload(cfg config) (serverWorkload, error) {
	switch cfg.Workload {
	case "ivoryd-mix":
		return newMix(cfg.Seed, mixRate, mixWarmup.Seconds()+cfg.Seconds)
	case "cluster-explore":
		return newClusterExplore(cfg.Seed)
	}
	return nil, fmt.Errorf("%q is not a server workload", cfg.Workload)
}

// runServerWorkload generates the inputs and starts the fleet
// cfg.SetupReps times, timing each set-up, and measures on the last fleet.
func runServerWorkload(cfg config, stderr io.Writer) (*outcome, error) {
	if _, err := os.Stat(cfg.Ivoryd); err != nil {
		return nil, fmt.Errorf("ivoryd binary: %w", err)
	}
	var setups []float64
	var w serverWorkload
	var fl *fleet
	for rep := 1; rep <= cfg.SetupReps; rep++ {
		start := time.Now()
		var err error
		if w, err = newServerWorkload(cfg); err != nil {
			return nil, err
		}
		if fl, err = w.start(cfg, stderr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if rep < cfg.SetupReps {
			if _, err := fl.stop(); err != nil {
				return nil, err
			}
		}
	}
	o, err := w.run(cfg, fl, stderr)
	rss, serr := fl.stop()
	if err != nil {
		return nil, err
	}
	if serr != nil {
		return nil, serr
	}
	o.SetupS, o.RSSMB = setups, rss
	return o, nil
}

// ivoryd-mix parameters. The rate is a fifth to two fifths of the knee
// `calibrate` measures on a 2-vCPU host (calibration.json), which moved
// between 150 and 300 req/s with the load on the shared machine. At half
// the knee, losing part of a CPU to other tenants brought the daemon near
// saturation, and queueing then moved p99 by a third between runs of one
// commit. At this rate a 25 s run's kept windows still hold over a
// thousand requests, ten of them beyond p99.
const (
	mixRate    = 60.0 // requests per second
	mixHotKeys = 256  // twice ivoryd's default 128-entry LRU
	mixZipfS   = 1.1
	// mixWarmup is the untimed traffic that fills the LRU before measuring.
	mixWarmup    = 3 * time.Second
	goodputSLO   = 50 * time.Millisecond
	asyncTimeout = 30 * time.Second
	// pollInterval paces async polling: a fixed step keeps the added
	// latency under 5 ms without a poll stream that would crowd the two
	// connections.
	pollInterval = 5 * time.Millisecond
)

// mixReq is one generated request, in its synchronous and asynchronous
// body forms, with what its checks expect.
type mixReq struct {
	Kind  string          `json:"kind"` // explore | hybrid | transient
	Sync  json.RawMessage `json:"sync"`
	Async json.RawMessage `json:"async"`

	want      string // spec or request hash ivoryd must report
	spec      server.SpecDTO
	budgetMM2 float64
	cells     int
}

func (r *mixReq) encode(sync, async any) (err error) {
	if r.Sync, err = json.Marshal(sync); err != nil {
		return err
	}
	r.Async, err = json.Marshal(async)
	return err
}

func exploreReq(d server.SpecDTO) (*mixReq, error) {
	norm, err := normalized(d)
	if err != nil {
		return nil, err
	}
	r := &mixReq{Kind: "explore", want: server.SpecHash(norm), spec: d}
	return r, r.encode(server.ExploreRequest{Spec: d}, server.ExploreRequest{Spec: d, Async: true})
}

func hybridReq(h server.HybridRequest) (*mixReq, error) {
	if _, err := h.ToSpec(); err != nil {
		return nil, err
	}
	r := &mixReq{Kind: "hybrid", want: h.Hash(), budgetMM2: h.AreaBudgetMM2}
	async := h
	async.Async = true
	return r, r.encode(h, async)
}

func transientReq(t server.TransientRequest) (*mixReq, error) {
	r := &mixReq{Kind: "transient", want: t.Hash(), cells: len(t.Benchmarks) * len(t.Configs)}
	async := t
	async.Async = true
	return r, r.encode(t, async)
}

// The mix is dealt: every ten fresh requests (and every ten of the hot
// pool) hold six explorations, two hybrid sweeps and two transient runs;
// every two arrivals one hot and one fresh request; every twenty arrivals
// three async submits. Async explorations return the full candidate list
// and set the tail, so their count must not vary with the seed.
var (
	mixKinds = []string{"explore", "explore", "explore", "explore", "explore", "explore", "hybrid", "hybrid", "transient", "transient"}
	mixHot   = shares(1, 2)
	mixAsync = shares(3, 20)
)

// drawMixReq draws a request of the given kind: an exploration (a fifth
// of them adaptive), a hybrid sweep, or a scoped transient run of
// mixShape.
func drawMixReq(rng *rand.Rand, kind string) (*mixReq, error) {
	switch kind {
	case "explore":
		return exploreReq(drawSpec(rng))
	case "hybrid":
		return hybridReq(drawHybrid(rng))
	}
	return transientReq(drawTransient(rng, mixShape))
}

// check validates a completed response body; for an exploration it also
// returns the decoded response for the cross-check.
func (r *mixReq) check(payload []byte, async bool) (*server.ExploreResponse, error) {
	switch r.Kind {
	case "explore":
		var resp server.ExploreResponse
		if err := json.Unmarshal(payload, &resp); err != nil {
			return nil, err
		}
		return &resp, checkExploreWire(&resp, r.want, r.spec.AreaMM2, !async)
	case "hybrid":
		var resp server.HybridResponse
		if err := json.Unmarshal(payload, &resp); err != nil {
			return nil, err
		}
		return nil, checkHybridWire(&resp, r.want, r.budgetMM2)
	default:
		var resp server.TransientResponse
		if err := json.Unmarshal(payload, &resp); err != nil {
			return nil, err
		}
		if resp.RequestHash != r.want {
			return nil, fmt.Errorf("request_hash %s, want %s", resp.RequestHash, r.want)
		}
		if len(resp.Cells) != r.cells || resp.Stats.Done != resp.Stats.Cells || resp.Stats.Cells != r.cells {
			return nil, fmt.Errorf("%d/%d cells done, %d returned, want %d", resp.Stats.Done, resp.Stats.Cells, len(resp.Cells), r.cells)
		}
		return nil, nil
	}
}

func checkHybridWire(r *server.HybridResponse, wantHash string, budgetMM2 float64) error {
	if r.RequestHash != wantHash {
		return fmt.Errorf("request_hash %s, want %s", r.RequestHash, wantHash)
	}
	st := r.Stats
	if st.Ranked+st.RejectedInfeasible+st.RejectedArea != st.Assignments {
		return fmt.Errorf("%d ranked + %d infeasible + %d over budget != %d assignments",
			st.Ranked, st.RejectedInfeasible, st.RejectedArea, st.Assignments)
	}
	if len(r.Candidates) == 0 || r.Best == nil || *r.Best != r.Candidates[0] {
		return errors.New("best is not candidates[0]")
	}
	for j, c := range r.Candidates {
		if !(c.EfficiencyPct > 0 && c.EfficiencyPct <= 100) {
			return fmt.Errorf("candidate %d efficiency %g%%", j, c.EfficiencyPct)
		}
		if budgetMM2 > 0 && c.AreaMM2 > budgetMM2*(1+1e-12) {
			return fmt.Errorf("candidate %d area %g mm2 over the %g mm2 budget", j, c.AreaMM2, budgetMM2)
		}
		if j > 0 && c.EfficiencyPct > r.Candidates[j-1].EfficiencyPct {
			return fmt.Errorf("candidate %d outranks candidate %d", j, j-1)
		}
	}
	return nil
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	At    time.Duration `json:"at_ns"`
	Req   int           `json:"req"`
	Async bool          `json:"async,omitempty"`
}

// mixWorkload is the ivoryd-mix workload.
type mixWorkload struct {
	reqs []*mixReq
	arr  []arrival
	warm []*mixReq // one request of each type for set-up
}

// newMix generates the request stream for seconds of open-loop traffic at
// rate: Poisson arrivals conditioned on their count (rate × seconds sorted
// uniform times), half of them drawn Zipf(1.1) from a pool of mixHotKeys
// requests and half fresh, 15% of all submitted async.
func newMix(seed int64, rate, seconds float64) (*mixWorkload, error) {
	rng := rand.New(rand.NewSource(seedFor(seed, "ivoryd-mix")))
	n := int(math.Round(rate * seconds))
	poolKinds, freshKinds := dealt(rng, mixKinds, mixHotKeys), dealt(rng, mixKinds, n)
	hot, async := dealt(rng, mixHot, n), dealt(rng, mixAsync, n)
	w := &mixWorkload{}
	add := func(kind string) error {
		r, err := drawMixReq(rng, kind)
		w.reqs = append(w.reqs, r)
		return err
	}
	for _, kind := range poolKinds {
		if err := add(kind); err != nil {
			return nil, err
		}
	}
	zipf := rand.NewZipf(rng, mixZipfS, 1, mixHotKeys-1)
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)
	fresh := 0
	for i, t := range times {
		a := arrival{At: time.Duration(t * float64(time.Second)), Async: async[i]}
		if hot[i] {
			a.Req = int(zipf.Uint64())
		} else {
			if err := add(freshKinds[fresh]); err != nil {
				return nil, err
			}
			fresh++
			a.Req = len(w.reqs) - 1
		}
		w.arr = append(w.arr, a)
	}
	for _, d := range warmSpecs() {
		r, err := exploreReq(d)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, r)
	}
	hr, err := hybridReq(warmHybrid)
	if err != nil {
		return nil, err
	}
	tr, err := transientReq(warmTransient)
	if err != nil {
		return nil, err
	}
	w.warm = append(w.warm, hr, tr)
	return w, nil
}

func (w *mixWorkload) digest() string {
	return digestOf(struct {
		Reqs []*mixReq `json:"reqs"`
		Arr  []arrival `json:"arrivals"`
	}{w.reqs, w.arr})
}

func (w *mixWorkload) start(cfg config, stderr io.Writer) (*fleet, error) {
	d, err := startDaemon(cfg.Ivoryd, stderr)
	if err != nil {
		return nil, err
	}
	fl := &fleet{front: d}
	if err := w.ready(fl.front.url); err != nil {
		_, _ = fl.stop()
		return nil, err
	}
	return fl, nil
}

// ready waits for health and runs the warm-up ops: each request type
// synchronously, and one exploration async.
func (w *mixWorkload) ready(base string) error {
	h := newHTTPClient()
	defer h.close()
	if err := waitReady(h, base, false); err != nil {
		return err
	}
	for i, r := range w.warm {
		if op := w.send(h, base, r, false, time.Now(), nil); op.err != nil {
			return fmt.Errorf("warm-up %s: %w", r.Kind, op.err)
		}
		if i == 0 {
			if op := w.send(h, base, r, true, time.Now(), nil); op.err != nil {
				return fmt.Errorf("warm-up async %s: %w", r.Kind, op.err)
			}
		}
	}
	return nil
}

// mixOp is the outcome of one open-loop request.
type mixOp struct {
	kind        string
	async       bool
	err         error
	shed        bool
	latMS       float64 // due → response complete
	lagMS       float64 // due → sent
	postMS      float64 // the POST exchange alone
	bytes       int
	responses   int
	polls       int
	queueWaitMS float64
	explore     *server.ExploreResponse
}

// jobStatus is the GET /v1/jobs/{id} body with the result left raw.
type jobStatus struct {
	ID         string          `json:"id"`
	Status     string          `json:"status"`
	CreatedAt  string          `json:"created_at"`
	FinishedAt string          `json:"finished_at"`
	Result     json.RawMessage `json:"result"`
	Error      string          `json:"error"`
}

// send sends one request — for an async one, the submit and the polls —
// and checks the response after its latency is taken.
func (w *mixWorkload) send(h *httpClient, base string, r *mixReq, async bool, due time.Time, tr *tracer) (op mixOp) {
	op.kind, op.async = r.Kind, async
	root := tr.root("op." + r.Kind)
	root.setStart(due)
	defer func() { root.end(map[string]int64{"polls": int64(op.polls)}) }()
	op.lagMS = millis(time.Since(due))
	body, want := []byte(r.Sync), http.StatusOK
	if async {
		body, want = r.Async, http.StatusAccepted
	}
	t0 := time.Now()
	code, resp, err := h.do(http.MethodPost, base+"/v1/"+r.Kind, body)
	t1 := time.Now()
	root.addChild("http.post", t0, t1, map[string]int64{"bytes": int64(len(resp))})
	op.postMS = millis(t1.Sub(t0))
	op.bytes, op.responses = len(resp), 1
	if err != nil {
		op.err = err
		return op
	}
	if code != want {
		op.shed = code == http.StatusTooManyRequests
		op.err = fmt.Errorf("status %d: %s", code, snippet(resp))
		return op
	}
	payload := resp
	if async {
		if payload, err = await(h, base, resp, root, &op); err != nil {
			op.err = err
			return op
		}
	}
	op.latMS = millis(time.Since(due))
	op.explore, op.err = r.check(payload, async)
	return op
}

// await polls an async job every pollInterval until it finishes and
// returns the job's result body.
func await(h *httpClient, base string, accepted []byte, root *active, op *mixOp) (json.RawMessage, error) {
	var js jobStatus
	if err := json.Unmarshal(accepted, &js); err != nil {
		return nil, fmt.Errorf("async submit: %w", err)
	}
	deadline := time.Now().Add(asyncTimeout)
	for {
		time.Sleep(pollInterval)
		t0 := time.Now()
		code, body, err := h.do(http.MethodGet, base+"/v1/jobs/"+js.ID, nil)
		root.addChild("http.poll", t0, time.Now(), nil)
		op.polls++
		op.responses++
		op.bytes += len(body)
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("poll status %d: %s", code, snippet(body))
		}
		if err := json.Unmarshal(body, &js); err != nil {
			return nil, fmt.Errorf("poll: %w", err)
		}
		switch js.Status {
		case server.JobRunning:
			if time.Now().After(deadline) {
				return nil, errors.New("async job did not finish")
			}
		case server.JobDone:
			op.queueWaitMS = queueWaitMS(js)
			return js.Result, nil
		default:
			return nil, fmt.Errorf("async job %s: %s", js.Status, js.Error)
		}
	}
}

// queueWaitMS is the part of an async job's life not spent computing:
// finished_at − created_at − the result's wall_ms (whole milliseconds on
// the wire), floored at zero (a cache hit finishes at once but carries
// the original computation's wall time).
func queueWaitMS(js jobStatus) float64 {
	created, err1 := time.Parse(time.RFC3339Nano, js.CreatedAt)
	finished, err2 := time.Parse(time.RFC3339Nano, js.FinishedAt)
	wall, err3 := wallMS(js.Result)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0
	}
	return math.Max(0, millis(finished.Sub(created))-wall)
}

// wallMS reads the compute wall time every response body carries in
// stats.wall_ms.
func wallMS(body []byte) (float64, error) {
	var res struct {
		Stats struct {
			WallMS float64 `json:"wall_ms"`
		} `json:"stats"`
	}
	err := json.Unmarshal(body, &res)
	return res.Stats.WallMS, err
}

// mixStats gathers what the per-layer metrics need from one open-loop
// phase.
type mixStats struct {
	posts, responses, bytes int
	postMS, lagMS, waitMS   []float64
	asyncOps, polls, shed   int
	goodput                 int
}

// window selects the arrivals due in [from, to), at most limit of them
// (0: no cap).
func (w *mixWorkload) window(from, to time.Duration, limit int) []arrival {
	var out []arrival
	for _, a := range w.arr {
		if a.At >= from && a.At < to && (limit == 0 || len(out) < limit) {
			out = append(out, a)
		}
	}
	return out
}

// openLoop sends arr on its schedule, each request from its own goroutine
// whether or not earlier ones finished, timing each from when it was due.
// The phase covers span of the schedule from offset origin.
func (w *mixWorkload) openLoop(h *httpClient, base string, arr []arrival, origin, span time.Duration, tr *tracer) (phase, mixStats, []crossItem) {
	ops := make([]mixOp, len(arr))
	start := time.Now()
	var wg sync.WaitGroup
	for i, a := range arr {
		due := start.Add(a.At - origin)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, a arrival, due time.Time) {
			defer wg.Done()
			ops[i] = w.send(h, base, w.reqs[a.Req], a.Async, due, tr)
		}(i, a, due)
	}
	wg.Wait()

	p := phase{TimedS: span.Seconds()}
	var st mixStats
	var cross []crossItem
	for i, op := range ops {
		p.Attempted++
		st.posts++
		st.responses += op.responses
		st.bytes += op.bytes
		st.postMS = append(st.postMS, op.postMS)
		st.lagMS = append(st.lagMS, op.lagMS)
		if op.shed {
			st.shed++
		}
		if op.err != nil {
			p.fail(fmt.Errorf("request %d (%s): %w", i, op.kind, op.err))
			continue
		}
		p.ok((arr[i].At - origin).Seconds(), op.latMS)
		if op.latMS <= millis(goodputSLO) {
			st.goodput++
		}
		if op.async {
			st.asyncOps++
			st.polls += op.polls
			st.waitMS = append(st.waitMS, op.queueWaitMS)
		}
		if op.explore != nil && i%crossEvery == 0 {
			cross = append(cross, crossItem{spec: w.reqs[arr[i].Req].spec, resp: op.explore, trimmed: !op.async})
		}
	}
	p.summarize()
	return p, st, cross
}

func (w *mixWorkload) run(cfg config, fl *fleet, stderr io.Writer) (*outcome, error) {
	h := newHTTPClient()
	defer h.close()
	warm, secs := mixWarmup, time.Duration(cfg.Seconds*float64(time.Second))
	if cfg.Trace {
		secs /= 2
	}
	o := &outcome{Digest: w.digest()}
	_, _, _ = w.openLoop(h, fl.front.url, w.window(0, warm, 0), 0, warm, nil)
	pa, _, cross := w.openLoop(h, fl.front.url, w.window(warm, warm+secs, cfg.Limit), warm, secs, nil)
	o.Untraced = pa
	for i := range cross {
		cross[i].phase = &o.Untraced
	}
	if cfg.Trace {
		before, err := h.scrape(fl.front.url)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		arr := w.window(warm+secs, warm+2*secs, cfg.Limit)
		pb, st, cb := w.openLoop(h, fl.front.url, arr, warm+secs, secs, tr)
		after, err := h.scrape(fl.front.url)
		if err != nil {
			return nil, err
		}
		o.Traced = &pb
		for i := range cb {
			cb[i].phase = o.Traced
		}
		cross = append(cross, cb...)
		o.Layers = mixLayers(before, after, st, secs.Seconds())
		// Cache outcomes per request: replay the traced stream in order on a
		// fresh daemon, one request at a time, diffing /metrics around each.
		if _, err := fl.front.stop(); err != nil {
			return nil, err
		}
		if fl.front, err = startDaemon(cfg.Ivoryd, stderr); err != nil {
			return nil, err
		}
		if err := waitReady(h, fl.front.url, false); err != nil {
			return nil, err
		}
		if err := w.replay(h, fl.front.url, arr, secs.Seconds()/2, o.Layers); err != nil {
			o.Traced.fail(fmt.Errorf("replay: %w", err))
		}
		spans := tr.snapshot()
		printSelfTimes(stderr, spans)
		if err := writeSpans(cfg.Spans, spans); err != nil {
			return nil, err
		}
	}
	runCrossChecks(cross)
	return o, nil
}

// mixLayers derives the server-layer metrics of a traced open-loop phase
// from the /metrics deltas around it and the generator's own records.
func mixLayers(before, after map[string]float64, st mixStats, phaseS float64) map[string]float64 {
	d := func(name string) float64 { return after[name] - before[name] }
	hits, misses := d("ivoryd_result_cache_hits_total"), d("ivoryd_result_cache_misses_total")
	m := map[string]float64{
		"server.cache_hit_ratio":         div(hits, hits+misses),
		"server.coalesced_frac":          div(d("ivoryd_coalesced_requests_total"), float64(st.posts)),
		"server.shed_frac":               div(float64(st.shed), float64(st.posts)),
		"server.resp_bytes_mean":         div(float64(st.bytes), float64(st.responses)),
		"server.async_queue_wait_ms_p50": percentile(st.waitMS, 50),
		"server.async_polls_mean":        div(float64(st.polls), float64(st.asyncOps)),
		"gen.lag_ms_p99":                 percentile(st.lagMS, 99),
		"gen.goodput_rps":                div(float64(st.goodput), phaseS),
	}
	var sumS, count float64
	for _, ep := range []string{"explore", "hybrid", "transient"} {
		s1, c1 := handlerSeconds(after, ep)
		s0, c0 := handlerSeconds(before, ep)
		s, c := s1-s0, c1-c0
		m["server.handler_ms_mean."+ep] = 1000 * div(s, c)
		sumS, count = sumS+s, count+c
	}
	m["server.wire_ms_mean"] = mean(st.postMS) - 1000*div(sumS, count)
	return m
}

// replay sends arr synchronously one at a time for up to seconds, classing
// each request a cache hit or miss from the /metrics counters around it:
// a hit's latency is the server layer's whole cost; a miss's latency less
// its compute wall_ms is the server layer's overhead on a miss.
func (w *mixWorkload) replay(h *httpClient, base string, arr []arrival, seconds float64, layers map[string]float64) error {
	var hitMS, overheadMS []float64
	start := time.Now()
	for _, a := range arr {
		if time.Since(start).Seconds() > seconds {
			break
		}
		r := w.reqs[a.Req]
		before, err := h.scrape(base)
		if err != nil {
			return err
		}
		t0 := time.Now()
		code, body, err := h.do(http.MethodPost, base+"/v1/"+r.Kind, r.Sync)
		latMS := millis(time.Since(t0))
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status %d: %s", code, snippet(body))
		}
		after, err := h.scrape(base)
		if err != nil {
			return err
		}
		if after["ivoryd_result_cache_hits_total"] > before["ivoryd_result_cache_hits_total"] {
			hitMS = append(hitMS, latMS)
			continue
		}
		wall, err := wallMS(body)
		if err != nil {
			return err
		}
		overheadMS = append(overheadMS, latMS-wall)
	}
	layers["server.hit_ms_p50"] = percentile(hitMS, 50)
	layers["server.miss_overhead_ms_p50"] = percentile(overheadMS, 50)
	return nil
}

// clusterExplore is the cluster-explore workload: the explore-sweep spec
// stream through a coordinator and two single-core workers.
type clusterExplore struct {
	dtos   []server.SpecDTO
	bodies [][]byte
	hashes []string
	warm   [][]byte

	// Set for the run: the client, the coordinator's URL, and what the
	// checks record of the current phase.
	h          *httpClient
	base       string
	done       []int // stream index of each successful op, in order
	bytes, ops int
	cross      []crossItem
}

func newClusterExplore(seed int64) (*clusterExplore, error) {
	w := &clusterExplore{dtos: exploreSpecs(seed, streamLen)}
	for _, d := range w.dtos {
		r, err := exploreReq(d)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, r.Sync)
		w.hashes = append(w.hashes, r.want)
	}
	for _, spec := range warmSpecs() {
		r, err := exploreReq(spec)
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, r.Sync)
	}
	return w, nil
}

func (w *clusterExplore) digest() string { return digestOf(w.dtos) }

// The cluster's processes: each worker runs one job at a time on one
// engine goroutine, so the two workers hold the host's two CPUs; no
// process caches results, so every op is a full sharded exploration.
var (
	workerArgs = []string{"-role", "worker", "-workers", "1", "-engine-workers", "1", "-cache", "-1"}
	coordArgs  = []string{"-role", "coordinator", "-cache", "-1"}
)

func (w *clusterExplore) start(cfg config, stderr io.Writer) (*fleet, error) {
	fl := &fleet{}
	fail := func(err error) (*fleet, error) {
		_, _ = fl.stop()
		return nil, err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(cfg.Ivoryd, stderr, workerArgs...)
		if err != nil {
			return fail(err)
		}
		fl.workers = append(fl.workers, d)
		urls = append(urls, d.url)
	}
	d, err := startDaemon(cfg.Ivoryd, stderr, append(coordArgs, "-cluster-workers", strings.Join(urls, ","))...)
	if err != nil {
		return fail(err)
	}
	fl.front = d
	h := newHTTPClient()
	defer h.close()
	if err := waitReady(h, d.url, true); err != nil {
		return fail(err)
	}
	for _, body := range w.warm {
		if code, resp, err := h.do(http.MethodPost, d.url+"/v1/explore", body); err != nil || code != http.StatusOK {
			return fail(fmt.Errorf("warm-up: status %d %v: %s", code, err, snippet(resp)))
		}
	}
	return fl, nil
}

func (w *clusterExplore) do(i int, tr *tracer) (any, error) {
	root := tr.root("op.explore")
	code, body, err := w.h.do(http.MethodPost, w.base+"/v1/explore", w.bodies[i%len(w.bodies)])
	root.end(map[string]int64{"bytes": int64(len(body))})
	w.bytes += len(body)
	w.ops++
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, snippet(body))
	}
	return body, err
}

func (w *clusterExplore) check(i int, out any, _ bool) error {
	j := i % len(w.bodies)
	var resp server.ExploreResponse
	if err := json.Unmarshal(out.([]byte), &resp); err != nil {
		return err
	}
	if err := checkExploreWire(&resp, w.hashes[j], w.dtos[j].AreaMM2, true); err != nil {
		return err
	}
	w.done = append(w.done, j)
	if i%crossEvery == 0 {
		w.cross = append(w.cross, crossItem{spec: w.dtos[j], resp: &resp, trimmed: true})
	}
	return nil
}

// phase runs one closed-loop phase and ties its cross-check items to it.
func (w *clusterExplore) phase(p *phase, cursor *int, seconds float64, limit int, tr *tracer) {
	w.done, w.bytes, w.ops = w.done[:0], 0, 0
	n := len(w.cross)
	*p = runClosed(w, cursor, seconds, limit, tr)
	for i := n; i < len(w.cross); i++ {
		w.cross[i].phase = p
	}
}

// scrapeFleet reads /metrics of every process, front first.
func scrapeFleet(h *httpClient, fl *fleet) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, d := range append([]*daemon{fl.front}, fl.workers...) {
		m, err := h.scrape(d.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// localCompare bounds the in-process explorations the cluster verdict
// re-runs.
const localCompare = 100

func (w *clusterExplore) run(cfg config, fl *fleet, stderr io.Writer) (*outcome, error) {
	w.h, w.base = newHTTPClient(), fl.front.url
	defer w.h.close()
	secs := cfg.Seconds
	if cfg.Trace {
		secs /= 2
	}
	o := &outcome{Digest: w.digest()}
	cursor := 0
	w.phase(&o.Untraced, &cursor, secs, cfg.Limit, nil)
	if cfg.Trace {
		before, err := scrapeFleet(w.h, fl)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		o.Traced = &phase{}
		w.phase(o.Traced, &cursor, secs, cfg.Limit, tr)
		after, err := scrapeFleet(w.h, fl)
		if err != nil {
			return nil, err
		}
		code, body, err := w.h.do(http.MethodGet, w.base+"/v1/cluster", nil)
		var cr server.ClusterResponse
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("/v1/cluster returned %d", code)
		}
		if err == nil {
			err = json.Unmarshal(body, &cr)
		}
		if err != nil {
			return nil, err
		}
		o.Layers = clusterLayers(before, after, cr, o.Traced.Samples)
		o.Layers["server.wire_ms_mean"] = mean(o.Traced.LatMS) - o.Layers["server.coord_eval_ms_mean"]
		o.Layers["server.resp_bytes_mean"] = div(float64(w.bytes), float64(w.ops))
		o.Layers["server.cluster_vs_local_x"] = w.versusLocal(o.Traced.LatMS)
		spans := tr.snapshot()
		printSelfTimes(stderr, spans)
		if err := writeSpans(cfg.Spans, spans); err != nil {
			return nil, err
		}
	}
	runCrossChecks(w.cross)
	return o, nil
}

// clusterLayers derives the shard-layer metrics from the /metrics deltas
// of the coordinator (index 0) and the workers around the traced phase,
// and the coordinator's per-worker shard latency quantiles.
func clusterLayers(before, after []map[string]float64, cr server.ClusterResponse, ops int) map[string]float64 {
	h := func(i int, ep string) (float64, float64) {
		s1, c1 := handlerSeconds(after[i], ep)
		s0, c0 := handlerSeconds(before[i], ep)
		return s1 - s0, c1 - c0
	}
	coordS, coordN := h(0, "explore")
	var shardS, shardN float64
	for i := 1; i < len(after); i++ {
		s, c := h(i, "shard")
		shardS, shardN = shardS+s, shardN+c
	}
	var p50, p99 []float64
	for _, wk := range cr.Workers {
		p50 = append(p50, wk.LatencyP50MS)
		p99 = append(p99, wk.LatencyP99MS)
	}
	coordMS := 1000 * div(coordS, coordN)
	workerMS := 1000 * div(shardS, shardN)
	shardsPerOp := div(family(after[0], "ivoryd_shards_dispatched_total")-family(before[0], "ivoryd_shards_dispatched_total"), float64(ops))
	return map[string]float64{
		"server.shard_ms_p50":           mean(p50),
		"server.shard_ms_p99":           mean(p99),
		"server.shards_per_op":          shardsPerOp,
		"server.shard_retries":          family(after[0], "ivoryd_shard_retries_total") - family(before[0], "ivoryd_shard_retries_total"),
		"server.worker_handler_ms_mean": workerMS,
		"server.coord_eval_ms_mean":     coordMS,
		// Shards of one op run on the workers side by side, so the
		// critical path holds about shards/op × handler / workers of them.
		"server.coord_overhead_ms_mean":  coordMS - shardsPerOp*workerMS/float64(len(after)-1),
		"server.handler_ms_mean.explore": coordMS,
	}
}

// versusLocal is the cluster verdict: the mean cluster latency of the
// first localCompare traced ops over the in-process core.Explore latency
// of the same specs with two workers (the cluster's total compute).
// latMS aligns with w.done.
func (w *clusterExplore) versusLocal(latMS []float64) float64 {
	var clusterMS, localMS float64
	for k, j := range w.done {
		if k == localCompare {
			break
		}
		spec, err := normalized(w.dtos[j])
		if err != nil {
			return 0
		}
		spec.Workers = 2
		t0 := time.Now()
		if _, err := core.Explore(spec); err != nil {
			return 0
		}
		localMS += millis(time.Since(t0))
		clusterMS += latMS[k]
	}
	return div(clusterMS, localMS)
}
