package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// Determinism is the engine's core contract: the benchmark × configuration
// fan-out must be bit-identical to the serial path for every worker count.
func TestFig10RunDeterministicAcrossWorkers(t *testing.T) {
	opt := TransientOptions{T: 4e-6, Dt: 1e-9}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	var ref *Fig10Result
	for _, w := range workerCounts {
		o := opt
		o.Workers = w
		r, err := Fig10Run(context.Background(), o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if r.RunStats.Done != r.RunStats.Cells || r.RunStats.Cells != len(r.Cells) {
			t.Errorf("workers=%d: telemetry cells %d/%d vs %d results",
				w, r.RunStats.Done, r.RunStats.Cells, len(r.Cells))
		}
		if ref == nil {
			ref = r
			continue
		}
		if err := sameFig10(ref, r); err != nil {
			t.Errorf("workers=%d: diverges from the serial run: %v", w, err)
		}
	}
	// Only CFD cells retain waveforms; box-plot cells must not drag the full
	// traces along.
	if len(ref.CFDTraces) != len(noiseConfigs) {
		t.Errorf("expected %d CFD traces, got %d", len(noiseConfigs), len(ref.CFDTraces))
	}
}

func TestFig13RunDeterministicAcrossWorkers(t *testing.T) {
	noise, err := Fig10Run(context.Background(), TransientOptions{T: 4e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Fig13Run(context.Background(), noise, TransientOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig13Run(context.Background(), noise, TransientOptions{Workers: runtime.NumCPU() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Breakdowns, par.Breakdowns) {
		t.Error("Breakdowns diverge across worker counts")
	}
	if !reflect.DeepEqual(ref.Margins, par.Margins) {
		t.Error("Margins diverge across worker counts")
	}
	if ref.BestConfig != par.BestConfig ||
		math.Float64bits(ref.ImprovementPP) != math.Float64bits(par.ImprovementPP) {
		t.Errorf("headline result diverges: %s %+v pp vs %s %+v pp",
			par.BestConfig, par.ImprovementPP, ref.BestConfig, ref.ImprovementPP)
	}
}

func TestGridScaleRunDeterministicAcrossWorkers(t *testing.T) {
	ref, err := gridScaleSerial()
	if err != nil {
		t.Fatal(err)
	}
	par, err := GridScaleRun(context.Background(), TransientOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Rows, par.Rows) {
		t.Errorf("grid-scaling rows diverge across worker counts:\n%v\nvs\n%v", par.Rows, ref.Rows)
	}
}

// A cancelled run surfaces a cancellation-shaped error rather than a partial
// result, whether cancelled before or during the fan-out.
func TestFig10RunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig10Run(ctx, TransientOptions{T: 4e-6, Dt: 1e-9}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: want context.Canceled, got %v", err)
	}
	// Cancel from the progress callback: the run is mid-fan-out with cells
	// still pending, so the cancellation must land inside a simulation cell.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fired := 0
	_, err := Fig10Run(ctx2, TransientOptions{T: 4e-6, Dt: 1e-9, Progress: func(TransientStats) {
		fired++
		if fired == 1 {
			cancel2()
		}
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation: want context.Canceled, got %v", err)
	}
}

// Fig13Run threads its context through both phases (the per-configuration
// explorations and the breakdown merge); a pre-cancelled run must fail
// fast with a cancellation-shaped error instead of sizing designs.
func TestFig13RunCancellation(t *testing.T) {
	noise, err := Fig10Run(context.Background(), TransientOptions{T: 4e-6, Dt: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig13Run(ctx, noise, TransientOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: want context.Canceled, got %v", err)
	}
}

// The progress callback sees monotonically increasing completion and the
// final telemetry accounts for every cell.
func TestFig10RunProgress(t *testing.T) {
	var mu sync.Mutex
	var done []int
	r, err := Fig10Run(context.Background(), TransientOptions{T: 4e-6, Dt: 1e-9, Progress: func(s TransientStats) {
		mu.Lock()
		done = append(done, s.Done)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != r.RunStats.Cells {
		t.Fatalf("progress fired %d times for %d cells", len(done), r.RunStats.Cells)
	}
	for i := 1; i < len(done); i++ {
		if done[i] != done[i-1]+1 {
			t.Fatalf("progress counter not monotone: %v", done)
		}
	}
	if r.RunStats.SimWall <= 0 || r.RunStats.Wall < r.RunStats.SimWall {
		t.Errorf("wall-clock telemetry inconsistent: %+v", r.RunStats)
	}
	if r.RunStats.TraceCacheHits+r.RunStats.TraceCacheMisses == 0 {
		t.Error("run performed no trace-cache lookups")
	}
	s := r.RunStats.String()
	for _, want := range []string{"cells", "trace cache", "explore"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats summary missing %q: %s", want, s)
		}
	}
}

func TestAblationsRunDeterministicAcrossWorkers(t *testing.T) {
	ref, err := AblationsRun(context.Background(), TransientOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := AblationsRun(context.Background(), TransientOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Rows, par.Rows) {
		t.Errorf("ablation rows diverge across worker counts:\n%v\nvs\n%v", par.Rows, ref.Rows)
	}
}
