package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]atomic.Int32, n)
			if err := ForContext(nil, n, workers, func(_ context.Context, i int) error { hits[i].Add(1); return nil }); err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForSerialIsInOrder(t *testing.T) {
	var order []int
	if err := ForContext(nil, 10, 1, func(_ context.Context, i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if i != v {
			t.Fatalf("serial path visited %v, want ascending order", order)
		}
	}
}

// TestForContextCoversAllIndices checks a live uncancelled context behaves
// like the nil one: every index visited exactly once, nil error.
func TestForContextCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		n := 500
		hits := make([]atomic.Int32, n)
		if err := ForContext(context.Background(), n, workers, func(_ context.Context, i int) error { hits[i].Add(1); return nil }); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForContextNilContext checks nil selects the background context.
func TestForContextNilContext(t *testing.T) {
	var ran atomic.Int32
	if err := ForContext(nil, 3, 2, func(context.Context, int) error { ran.Add(1); return nil }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("nil ctx ran %d of 3 jobs", ran.Load())
	}
}

// TestForContextPanicSurfacesIndex checks the panic-containment contract:
// a panic in one job is re-raised exactly once on the caller's goroutine as
// a *PanicError carrying the job index, for both the inline and pooled
// paths, and jobs already in flight still drain.
func TestForContextPanicSurfacesIndex(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var completed atomic.Int32
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate to the caller", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Index != 7 {
					t.Fatalf("workers=%d: panic tagged with job %d, want 7", workers, pe.Index)
				}
				if pe.Value != "boom" {
					t.Fatalf("workers=%d: panic value %v, want boom", workers, pe.Value)
				}
				if !strings.Contains(pe.Error(), "job 7") {
					t.Fatalf("workers=%d: error %q does not name the job", workers, pe.Error())
				}
				if len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: no stack captured", workers)
				}
			}()
			// The call panics before returning, so there is no error to check.
			_ = ForContext(context.Background(), 64, workers, func(_ context.Context, i int) error {
				if i == 7 {
					panic("boom")
				}
				completed.Add(1)
				return nil
			})
			t.Fatalf("workers=%d: ForContext returned instead of panicking", workers)
		}()
		if workers == 1 && completed.Load() != 7 {
			t.Fatalf("serial path ran %d jobs before the panic, want 7", completed.Load())
		}
	}
}

// TestForContextPanicFailsExactlyOnce checks that with several panicking
// jobs only one panic reaches the caller.
func TestForContextPanicFailsExactlyOnce(t *testing.T) {
	panics := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				panics++
				if _, ok := r.(*PanicError); !ok {
					t.Fatalf("recovered %T, want *PanicError", r)
				}
			}
		}()
		// Panics before returning; no error to check.
		_ = ForContext(context.Background(), 256, 8, func(_ context.Context, i int) error { panic(i) })
	}()
	if panics != 1 {
		t.Fatalf("caller saw %d panics, want exactly 1", panics)
	}
}

// TestForContextCancelStopsDispatch checks that cancelling mid-run stops
// new jobs promptly, drains in-flight jobs, and returns ctx.Err().
func TestForContextCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 100000
	var started atomic.Int32
	err := ForContext(ctx, n, 4, func(context.Context, int) error {
		if started.Add(1) == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// In-flight jobs drain, so a few over the trigger count is fine; the
	// full space must not have been swept.
	if got := started.Load(); got >= n {
		t.Fatalf("cancellation did not stop dispatch: %d of %d jobs ran", got, n)
	}
}

// TestForContextPreCancelled checks an already-cancelled context runs
// nothing.
func TestForContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForContext(ctx, 50, workers, func(context.Context, int) error { ran.Add(1); return nil })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d jobs ran under a pre-cancelled context", workers, ran.Load())
		}
	}
}

// TestForContextDeadline checks timeout-style cancellation surfaces as
// context.DeadlineExceeded.
func TestForContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := ForContext(ctx, 1<<30, 2, func(context.Context, int) error { time.Sleep(10 * time.Microsecond); return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// awaitCancel blocks until ctx is cancelled and returns its error wrapped
// the way a cell does. A ctx that is never cancelled yields a non-
// cancellation error after a generous guard, which outranks every real
// failure at a higher index and so fails the calling test.
func awaitCancel(ctx context.Context, i int) error {
	select {
	case <-ctx.Done():
		return fmt.Errorf("cell %d: %w", i, ctx.Err())
	case <-time.After(10 * time.Second):
		return fmt.Errorf("cell %d: in-flight job never saw its ctx cancelled", i)
	}
}

// TestForContextErrorPolicy pins the failure contract at the serial and
// pooled worker counts: which error comes back, that the first failure
// cancels the jobs in flight, and that no further job is dispatched.
func TestForContextErrorPolicy(t *testing.T) {
	real1 := errors.New("diverged")
	canc := fmt.Errorf("cell 1: %w", context.Canceled)
	for _, workers := range []int{1, 2, 8} {
		cases := []struct {
			name string
			n    int
			job  func(ctx context.Context, i int) error
			want error
			// maxStarted bounds how many jobs may start (0 = no bound).
			maxStarted int32
		}{{
			// Jobs 0..workers-2 are in flight when job workers-1 fails;
			// they fail only with the cancellation it causes. The root
			// cause must outrank their lower-index cancellations, and
			// none of the n-workers undispatched jobs may start.
			name: "root cause outranks sibling cancellations",
			n:    1000,
			job: func(ctx context.Context, i int) error {
				if i == workers-1 {
					return real1
				}
				return awaitCancel(ctx, i)
			},
			want:       real1,
			maxStarted: int32(workers),
		}, {
			// Job workers fails first; job 0, still in flight, then fails
			// for real too (not with a cancellation). The lower index wins.
			name: "lower index wins between two real failures",
			n:    workers + 1,
			job: func(ctx context.Context, i int) error {
				switch {
				case i == 0 && workers > 1:
					_ = awaitCancel(ctx, i)
					return real1
				case i == 0:
					return real1
				case i == workers:
					return errors.New("higher-index failure")
				}
				return nil
			},
			want: real1,
		}, {
			name: "a cancellation surfaces when it is the only error",
			n:    3,
			job: func(_ context.Context, i int) error {
				if i == 1 {
					return canc
				}
				return nil
			},
			want: canc,
		}, {
			name: "no errors return nil",
			n:    64,
			job:  func(context.Context, int) error { return nil },
		}}
		for _, c := range cases {
			var started atomic.Int32
			got := ForContext(context.Background(), c.n, workers, func(ctx context.Context, i int) error {
				started.Add(1)
				return c.job(ctx, i)
			})
			if got != c.want {
				t.Errorf("workers=%d, %s: got %v, want %v", workers, c.name, got, c.want)
			}
			if c.maxStarted > 0 && started.Load() > c.maxStarted {
				t.Errorf("workers=%d, %s: %d jobs started, want at most %d", workers, c.name, started.Load(), c.maxStarted)
			}
		}
	}
}

// TestForContextParentCancel checks that a parent cancel, with no job
// failing, still yields the parent's ctx.Err() at every worker count.
func TestForContextParentCancel(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		err := ForContext(ctx, 1000, workers, func(_ context.Context, i int) error {
			if i == 3 {
				cancel()
			}
			return nil
		})
		if err != ctx.Err() || !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want the parent's %v", workers, err, ctx.Err())
		}
	}
}

// goid returns the current goroutine's id, parsed from the "goroutine N
// [" header of its stack trace. Tests use it to tell the jobs ForContext
// runs on the calling goroutine from those on the goroutines it spawns.
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	return s[:strings.IndexByte(s, ' ')]
}

// siblingPair returns a two-job body for ForContext(ctx, n, 2, ...): the
// job that lands on the calling goroutine (id caller) waits until its
// sibling is in flight on the spawned worker, then runs onCaller; the
// sibling blocks until its ctx is cancelled. A blocked sibling cannot take
// another index, so the calling goroutine always runs one of the jobs.
// *callerIdx receives that job's index.
func siblingPair(caller string, callerIdx *atomic.Int32, onCaller func(i int) error) func(ctx context.Context, i int) error {
	inFlight := make(chan struct{})
	return func(ctx context.Context, i int) error {
		if goid() == caller {
			callerIdx.Store(int32(i))
			awaitStart(inFlight)
			return onCaller(i)
		}
		close(inFlight)
		return awaitCancel(ctx, i)
	}
}

// awaitStart waits for ch to close, giving up after a generous guard so
// a broken pool fails its test instead of hanging it.
func awaitStart(ch <-chan struct{}) {
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
	}
}

// TestForContextFailureOnCallingGoroutine pins the error contract for a
// job the calling goroutine runs itself: its real failure cancels the
// sibling in flight on the spawned worker and outranks that sibling's
// cancellation, whichever index it has. The scheduler almost always hands
// index 0 to the caller, which dispatches before the spawned goroutine
// runs; the test repeats until it has seen that case.
func TestForContextFailureOnCallingGoroutine(t *testing.T) {
	real1 := errors.New("diverged")
	caller := goid()
	sawIndex0 := false
	for attempt := 0; attempt < 200 && !sawIndex0; attempt++ {
		var callerIdx atomic.Int32
		callerIdx.Store(-1)
		got := ForContext(context.Background(), 2, 2, siblingPair(caller, &callerIdx, func(int) error { return real1 }))
		if got != real1 {
			t.Fatalf("attempt %d: got %v, want the calling goroutine's failure", attempt, got)
		}
		switch callerIdx.Load() {
		case 0:
			sawIndex0 = true
		case -1:
			t.Fatalf("attempt %d: no job ran on the calling goroutine", attempt)
		}
	}
	if !sawIndex0 {
		t.Fatal("index 0 never ran on the calling goroutine in 200 attempts")
	}
}

// TestForContextPanicWhileSiblingBlocks checks panic containment with the
// caller as a worker: a job panics on one goroutine while its sibling on
// the other blocks until cancelled. The panic must cancel the sibling,
// wait for it to drain, and reach the caller once as a *PanicError naming
// the panicking job, whether the calling goroutine or the spawned one
// raised it.
func TestForContextPanicWhileSiblingBlocks(t *testing.T) {
	caller := goid()
	for _, panicOnCaller := range []bool{true, false} {
		var panicIdx, drained atomic.Int32
		panicIdx.Store(-1)
		inFlight := make(chan struct{})
		job := func(ctx context.Context, i int) error {
			if (goid() == caller) == panicOnCaller {
				panicIdx.Store(int32(i))
				awaitStart(inFlight)
				panic("boom")
			}
			close(inFlight)
			err := awaitCancel(ctx, i)
			if errors.Is(err, context.Canceled) {
				drained.Add(1)
			}
			return err
		}
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok {
					t.Fatalf("panicOnCaller=%v: caller did not recover a *PanicError", panicOnCaller)
				}
				if want := int(panicIdx.Load()); pe.Index != want || pe.Value != "boom" {
					t.Fatalf("panicOnCaller=%v: PanicError{Index: %d, Value: %v}, want job %d's boom", panicOnCaller, pe.Index, pe.Value, want)
				}
				if drained.Load() != 1 {
					t.Fatalf("panicOnCaller=%v: the blocked sibling did not drain through its cancelled ctx", panicOnCaller)
				}
			}()
			// The call panics before returning; no error to check.
			_ = ForContext(context.Background(), 2, 2, job)
			t.Fatalf("panicOnCaller=%v: ForContext returned instead of panicking", panicOnCaller)
		}()
	}
}

// TestForContextParentCancelOnCallingGoroutine checks that a parent
// cancel issued by the job on the calling goroutine stops dispatch, frees
// the sibling blocked on the spawned worker, and surfaces as the
// parent's ctx.Err().
func TestForContextParentCancelOnCallingGoroutine(t *testing.T) {
	caller := goid()
	ctx, cancel := context.WithCancel(context.Background())
	var callerIdx, started atomic.Int32
	callerIdx.Store(-1)
	jobs := siblingPair(caller, &callerIdx, func(int) error { cancel(); return nil })
	err := ForContext(ctx, 1000, 2, func(ctx context.Context, i int) error {
		started.Add(1)
		return jobs(ctx, i)
	})
	if !errors.Is(err, context.Canceled) || callerIdx.Load() < 0 {
		t.Fatalf("got %v with caller job %d, want the parent's cancellation from a job on the calling goroutine", err, callerIdx.Load())
	}
	if n := started.Load(); n > 2 {
		t.Fatalf("%d jobs started after the calling goroutine cancelled the parent, want 2", n)
	}
}
