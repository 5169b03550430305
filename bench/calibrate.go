package main

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// kneeP99MS is the latency limit of the rate sweep: the knee is the
// highest offered rate served with p99 at or under it, no failures, and
// at least 95% of the offered rate completed.
const kneeP99MS = 100.0

// ratePoint is one step of the ivoryd-mix rate sweep.
type ratePoint struct {
	RateRPS     float64 `json:"rate_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	GoodputRPS  float64 `json:"goodput_rps"`
	LagP99MS    float64 `json:"gen_lag_p99_ms"`
	Failed      int     `json:"failed"`
}

// metricSpread is one end-to-end metric over the calibration runs.
type metricSpread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (q3 − q1) / median, the share the bound is compared with.
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

type workloadCalibration struct {
	Runs         int                     `json:"runs"`
	AttemptedOps float64                 `json:"attempted_ops_median"`
	Metrics      map[string]metricSpread `json:"metrics"`
}

type calibration struct {
	Host struct {
		NumCPU     int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Platform   string `json:"platform"`
	} `json:"host"`
	RunSeconds float64 `json:"run_seconds"`
	Mix        struct {
		RateRPS        float64     `json:"rate_rps"`
		KneeRPS        float64     `json:"knee_rps"`
		KneeP99LimitMS float64     `json:"knee_p99_limit_ms"`
		Sweep          []ratePoint `json:"sweep"`
	} `json:"ivoryd_mix"`
	Workloads map[string]workloadCalibration `json:"workloads"`
}

// Calibration settings: runs per workload, the ivoryd-mix rates swept
// (requests/s), and the measured seconds per swept rate.
const (
	calibRuns        = 5
	calibRateSeconds = 5.0
)

var calibRates = []float64{50, 100, 150, 200, 250, 300, 400, 500}

// calibrateMain measures what the benchmark's fixed settings rest on and
// prints it as JSON (bench/calibration.json is a committed run): the host,
// an open-loop rate sweep of ivoryd-mix that locates the knee its fixed
// rate is set against, and every end-to-end metric over calibRuns seeds
// per workload at the run length of -seconds.
func calibrateMain(cfg config, stdout, stderr io.Writer) int {
	var c calibration
	c.Host.NumCPU, c.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	c.Host.GoVersion, c.Host.Platform = runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH
	c.RunSeconds = cfg.Seconds
	c.Mix.RateRPS, c.Mix.KneeP99LimitMS = mixRate, kneeP99MS
	sweep, knee, err := kneeSweep(cfg, calibRates, calibRateSeconds, stderr)
	if err != nil {
		logf(stderr, "bench calibrate: %v", err)
		return 1
	}
	c.Mix.Sweep, c.Mix.KneeRPS = sweep, knee
	c.Workloads = map[string]workloadCalibration{}
	for _, wl := range workloads {
		vals := map[string][]float64{}
		var attempted []float64
		for seed := 1; seed <= calibRuns; seed++ {
			rc := cfg
			rc.Workload, rc.Seed, rc.Trace = wl.name, int64(seed), false
			o, err := runWorkload(rc, stderr)
			if err != nil {
				logf(stderr, "bench calibrate: %s seed %d: %v", wl.name, seed, err)
				return 1
			}
			res := o.result(false)
			if !res.Correct {
				logf(stderr, "bench calibrate: %s seed %d failed its checks: %v", wl.name, seed, o.errors())
				return 1
			}
			attempted = append(attempted, float64(res.Attempted))
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
			logf(stderr, "bench calibrate: %s seed %d done", wl.name, seed)
		}
		wc := workloadCalibration{Runs: calibRuns, AttemptedOps: median(attempted), Metrics: map[string]metricSpread{}}
		for name, v := range vals {
			q1, q2, q3 := quartiles(v)
			wc.Metrics[name] = metricSpread{Median: q2, Q1: q1, Q3: q3, Spread: div(q3-q1, q2), Values: v}
		}
		c.Workloads[wl.name] = wc
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		logf(stderr, "bench calibrate: %v", err)
		return 1
	}
	return 0
}

// kneeSweep offers ivoryd-mix traffic at each rate in turn to one daemon,
// after a 2 s warm-up per rate, and stops once a rate is far past
// saturation.
func kneeSweep(cfg config, rates []float64, seconds float64, stderr io.Writer) ([]ratePoint, float64, error) {
	const warmS = 2.0
	cfg.Workload = "ivoryd-mix"
	first, err := newMix(cfg.Seed, rates[0], warmS+seconds)
	if err != nil {
		return nil, 0, err
	}
	fl, err := first.start(cfg, stderr)
	if err != nil {
		return nil, 0, err
	}
	h := newHTTPClient()
	defer h.close()
	warm, secs := time.Duration(warmS*float64(time.Second)), time.Duration(seconds*float64(time.Second))
	var points []ratePoint
	knee := 0.0
	for _, r := range rates {
		w, err := newMix(cfg.Seed, r, warmS+seconds)
		if err != nil {
			_, _ = fl.stop()
			return nil, 0, err
		}
		_, _, _ = w.openLoop(h, fl.front.url, w.window(0, warm, 0), 0, warm, nil)
		p, st, _ := w.openLoop(h, fl.front.url, w.window(warm, warm+secs, 0), warm, secs, nil)
		pt := ratePoint{RateRPS: r, AchievedRPS: p.OpsPerS, P50MS: p.P50MS, P99MS: p.P99MS,
			GoodputRPS: float64(st.goodput) / seconds, LagP99MS: percentile(st.lagMS, 99), Failed: p.Failed}
		points = append(points, pt)
		logf(stderr, "bench calibrate: %.0f req/s offered: %.1f achieved, p50 %.2f ms, p99 %.2f ms, %d failed",
			r, pt.AchievedRPS, pt.P50MS, pt.P99MS, pt.Failed)
		if pt.P99MS <= kneeP99MS && pt.Failed == 0 && pt.AchievedRPS >= 0.95*r {
			knee = r
		}
		if pt.P99MS > 10*kneeP99MS {
			break
		}
	}
	if _, err := fl.stop(); err != nil {
		return nil, 0, err
	}
	return points, knee, nil
}
