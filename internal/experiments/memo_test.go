package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// resetCaseDesign empties the process-wide design memo so a test starts
// cold.
func resetCaseDesign() { caseDesign.Store(nil) }

// memoOpt is a short case-study span: the memo, not the simulation, is
// under test.
var memoOpt = TransientOptions{T: 4e-6, Dt: 1e-9}

// sameFig10 reports the first difference between two runs' results
// (telemetry excluded: it holds wall-clock measurements).
func sameFig10(a, b *Fig10Result) error {
	switch {
	case !reflect.DeepEqual(a.Cells, b.Cells):
		return errors.New("Cells differ")
	case !reflect.DeepEqual(a.NoiseByConfig, b.NoiseByConfig):
		return fmt.Errorf("NoiseByConfig differs: %v vs %v", a.NoiseByConfig, b.NoiseByConfig)
	case !reflect.DeepEqual(a.DroopByConfig, b.DroopByConfig):
		return fmt.Errorf("DroopByConfig differs: %v vs %v", a.DroopByConfig, b.DroopByConfig)
	case !reflect.DeepEqual(a.CFDTimes, b.CFDTimes) || !reflect.DeepEqual(a.CFDTraces, b.CFDTraces):
		return errors.New("CFD waveforms differ")
	case !reflect.DeepEqual(a.Configs, b.Configs):
		return errors.New("Configs differ")
	}
	return nil
}

// A cancelled search on a cold memo returns the context error and stores
// nothing, so the next run searches afresh and matches a clean cold run.
func TestCaseDesignMemoSkipsCancelledSearch(t *testing.T) {
	resetCaseDesign()
	ref, err := Fig10Run(context.Background(), memoOpt)
	if err != nil {
		t.Fatal(err)
	}

	resetCaseDesign()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := Fig10Run(ctx, memoOpt); !errors.Is(err, context.Canceled) || r != nil {
		t.Fatalf("cancelled cold run: want context.Canceled and no result, got %v, %v", r, err)
	}
	if caseDesign.Load() != nil {
		t.Fatal("a cancelled search was stored in the memo")
	}
	got, err := Fig10Run(context.Background(), memoOpt)
	if err != nil {
		t.Fatal(err)
	}
	if caseDesign.Load() == nil {
		t.Error("a successful search was not stored in the memo")
	}
	if err := sameFig10(ref, got); err != nil {
		t.Errorf("run after a cancelled one: %v", err)
	}
}

// A warm memo does not let a cancelled caller through: the context error
// still comes back instead of a result.
func TestCaseDesignMemoWarmStillCancels(t *testing.T) {
	if _, err := caseIVRDesign(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if r, err := Fig10Run(ctx, memoOpt); !errors.Is(err, context.Canceled) || r != nil {
		t.Errorf("Fig10Run on a warm memo: want context.Canceled and no result, got %v, %v", r, err)
	}
	if r, err := FastDVFSContext(ctx); !errors.Is(err, context.Canceled) || r != nil {
		t.Errorf("FastDVFSContext on a warm memo: want context.Canceled and no result, got %v, %v", r, err)
	}
}

// The memoized design is the one a fresh, uncached search builds.
func TestCaseDesignMemoMatchesFreshSearch(t *testing.T) {
	memo, err := caseIVRDesign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	again, err := caseIVRDesign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again != memo {
		t.Error("a warm memo returned a different design pointer")
	}
	fresh, err := searchCaseIVRDesign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memo.Config(), fresh.Config()) {
		t.Errorf("Config differs:\n%+v\nvs fresh\n%+v", memo.Config(), fresh.Config())
	}
	cs, err := NewCaseSystem()
	if err != nil {
		t.Fatal(err)
	}
	mm, err := memo.Evaluate(cs.Spec.IMax)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fresh.Evaluate(cs.Spec.IMax)
	if err != nil {
		t.Fatal(err)
	}
	// %x prints floats in exact hexadecimal, so equal strings mean
	// bit-identical metrics.
	if a, b := fmt.Sprintf("%x", mm), fmt.Sprintf("%x", fm); a != b {
		t.Errorf("Evaluate(IMax) metrics differ:\n%+v\nvs fresh\n%+v", mm, fm)
	}
}

// Results are the same whether the run paid for the search (cold) or
// reused the memo (warm), serially and at the default worker count.
func TestCaseDesignMemoColdWarmIdentical(t *testing.T) {
	for _, workers := range []int{1, 0} {
		opt := memoOpt
		opt.Workers = workers
		resetCaseDesign()
		cold, err := Fig10Run(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Fig10Run(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameFig10(cold, warm); err != nil {
			t.Errorf("workers=%d: cold vs warm: %v", workers, err)
		}
	}
	resetCaseDesign()
	cold, err := FastDVFSContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	warm, err := FastDVFSContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("FastDVFS: cold vs warm results differ")
	}
}

// Concurrent cold callers may each search; whichever design lands in the
// memo, every run sees the same results.
func TestCaseDesignMemoColdStartRace(t *testing.T) {
	resetCaseDesign()
	const callers = 8
	results := make([]*Fig10Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Fig10Run(context.Background(), memoOpt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if err := sameFig10(results[0], results[i]); err != nil {
			t.Errorf("caller %d vs caller 0: %v", i, err)
		}
	}
	if caseDesign.Load() == nil {
		t.Error("no design stored after a cold start")
	}
}

// BenchmarkCaseIVRDesignSearch times the uncached case-study design search:
// the static exploration Fig10Run paid on every call before the memo.
func BenchmarkCaseIVRDesignSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := searchCaseIVRDesign(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
