package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ivory/internal/parallel"
)

// TestExploreStatsMatchSerialCounts checks the telemetry record against
// the result it describes and across worker counts: per-kind accepted plus
// rejected must reproduce the serial path's counts exactly.
func TestExploreStatsMatchSerialCounts(t *testing.T) {
	spec := CaseStudySpec("45nm")
	spec.Workers = 1
	serial, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(res *Result, label string) {
		t.Helper()
		s := res.Stats
		if s.Cancelled {
			t.Fatalf("%s: uncancelled run marked cancelled", label)
		}
		if s.Done != s.Jobs || s.Jobs == 0 {
			t.Fatalf("%s: %d of %d jobs done", label, s.Done, s.Jobs)
		}
		if s.Accepted() != len(res.Candidates) {
			t.Fatalf("%s: stats accepted %d, result has %d candidates",
				label, s.Accepted(), len(res.Candidates))
		}
		if s.Rejected() != res.Rejected {
			t.Fatalf("%s: stats rejected %d, result says %d", label, s.Rejected(), res.Rejected)
		}
		if !reflect.DeepEqual(s.PerKind, serial.Stats.PerKind) {
			t.Fatalf("%s: per-kind stats %+v diverge from serial %+v",
				label, s.PerKind, serial.Stats.PerKind)
		}
		if s.Wall <= 0 {
			t.Fatalf("%s: wall time %v not positive", label, s.Wall)
		}
	}
	check(serial, "serial")
	for _, workers := range []int{0, 3, 16} {
		spec := spec
		spec.Workers = workers
		par, err := Explore(spec)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		check(par, "parallel")
	}
	// The case study explores all three families; each must be accounted.
	for _, k := range []Kind{KindSC, KindBuck, KindLDO} {
		if serial.Stats.ByKind(k).Evaluated() == 0 {
			t.Errorf("kind %v evaluated nothing in the case study", k)
		}
	}
}

// TestExploreProgressMonotonic checks the progress callback: serialized
// (the non-atomic counter below would trip -race otherwise), one call per
// job, Done strictly increasing to Jobs.
func TestExploreProgressMonotonic(t *testing.T) {
	spec := CaseStudySpec("45nm")
	calls, lastDone := 0, 0
	spec.Progress = func(s Stats) {
		calls++
		if s.Done != lastDone+1 {
			t.Errorf("progress Done jumped %d -> %d", lastDone, s.Done)
		}
		lastDone = s.Done
	}
	res, err := Explore(spec)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Stats.Jobs || lastDone != res.Stats.Jobs {
		t.Fatalf("%d progress calls, last Done %d, want %d", calls, lastDone, res.Stats.Jobs)
	}
}

// TestExploreCancelledMidRun cancels from the progress callback after the
// first completed job: Explore must return ctx.Err() promptly together
// with an uncorrupted partial result — every partial candidate identical
// to its serial counterpart, counters consistent, Cancelled set.
func TestExploreCancelledMidRun(t *testing.T) {
	full, err := Explore(CaseStudySpec("45nm"))
	if err != nil {
		t.Fatal(err)
	}
	serialByLabel := map[string]Candidate{}
	for _, c := range full.Candidates {
		serialByLabel[c.Kind.String()+"|"+c.Label] = c
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := CaseStudySpec("45nm")
	spec.Workers = 4
	spec.Context = ctx
	spec.Progress = func(s Stats) {
		if s.Done == 1 {
			cancel()
		}
	}
	res, err := Explore(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled Explore returned no partial result")
	}
	if !res.Stats.Cancelled {
		t.Fatal("partial result not marked cancelled")
	}
	if res.Stats.Done >= res.Stats.Jobs {
		t.Fatalf("cancellation after job 1 still completed %d of %d jobs",
			res.Stats.Done, res.Stats.Jobs)
	}
	if res.Stats.Accepted() != len(res.Candidates) {
		t.Fatalf("partial stats accepted %d, result has %d candidates",
			res.Stats.Accepted(), len(res.Candidates))
	}
	// No shard corruption: every candidate that made it out is exactly the
	// candidate the full sweep produced for the same configuration.
	for _, c := range res.Candidates {
		want, ok := serialByLabel[c.Kind.String()+"|"+c.Label]
		if !ok {
			t.Fatalf("partial candidate %q not present in the full sweep", c.Label)
		}
		if !reflect.DeepEqual(c.Metrics, want.Metrics) {
			t.Fatalf("partial candidate %q metrics diverge from the full sweep", c.Label)
		}
	}
	if len(res.Candidates) > 0 && res.Best.Label != res.Candidates[0].Label {
		t.Fatal("partial result not ranked: Best is not the first candidate")
	}
}

// TestExploreCancelStopsBetweenRefs: the local evaluator hands the pool
// chunks of consecutive refs, but a cancellation still stops the run at
// the next ref, not at the end of the chunk. Serially, a cancel from the
// first ref's progress call leaves exactly that ref done.
func TestExploreCancelStopsBetweenRefs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := CaseStudySpec("45nm")
	spec.Workers = 1
	spec.Context = ctx
	spec.Progress = func(s Stats) {
		if s.Done == 1 {
			cancel()
		}
	}
	res, err := Explore(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Stats.Done != 1 {
		t.Fatalf("cancelled after the first ref, %d of %d refs done", res.Stats.Done, res.Stats.Jobs)
	}
}

// TestExplorePreCancelled checks an already-cancelled context evaluates
// nothing and still hands back the (empty) telemetry.
func TestExplorePreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := CaseStudySpec("45nm")
	spec.Context = ctx
	res, err := Explore(spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res == nil || !res.Stats.Cancelled {
		t.Fatal("pre-cancelled Explore must return a cancelled-marked result")
	}
	if res.Stats.Done != 0 || len(res.Candidates) != 0 {
		t.Fatalf("pre-cancelled run evaluated %d jobs, %d candidates",
			res.Stats.Done, len(res.Candidates))
	}
}

// TestExploreDistributionCancelled checks the distribution sweep treats a
// cancelled context as a stop request, not an infeasible count.
func TestExploreDistributionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := CaseStudySpec("45nm")
	spec.Context = ctx
	if _, err := ExploreDistribution(spec, []int{1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestExplorePanicInJobSurfacesIndex injects a panic into an evaluation
// job through the progress callback (which runs inside the job on a worker
// goroutine) and checks the panic-containment contract end to end: the
// process survives the worker, and the caller's goroutine sees exactly one
// *parallel.PanicError naming the job.
func TestExplorePanicInJobSurfacesIndex(t *testing.T) {
	spec := CaseStudySpec("45nm")
	spec.Workers = 4
	spec.Progress = func(s Stats) {
		if s.Done == 3 {
			panic("injected job failure")
		}
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a job did not reach the caller")
		}
		pe, ok := r.(*parallel.PanicError)
		if !ok {
			t.Fatalf("recovered %T, want *parallel.PanicError", r)
		}
		if pe.Value != "injected job failure" {
			t.Fatalf("panic value %v lost in transit", pe.Value)
		}
		if pe.Index < 0 {
			t.Fatalf("panic not tagged with a job index: %d", pe.Index)
		}
	}()
	_, _ = Explore(spec)
	t.Fatal("Explore returned instead of re-raising the job panic")
}

// TestExploreRejectsUnknownKind checks the per-kind accounting's input
// guard: an out-of-range Kind is an error, not a silent no-op.
func TestExploreRejectsUnknownKind(t *testing.T) {
	spec := CaseStudySpec("45nm")
	spec.Kinds = []Kind{KindSC, Kind(9)}
	if _, err := Explore(spec); err == nil {
		t.Fatal("expected an error for an unknown Kind")
	}
}
