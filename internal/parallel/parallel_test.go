package parallel

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 100} {
		for _, n := range []int{0, 1, 5, 64, 1000} {
			hits := make([]atomic.Int32, n)
			if err := ForContext(nil, n, workers, func(i int) { hits[i].Add(1) }); err != nil {
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
	if err := ForContext(nil, 10, 1, func(i int) { order = append(order, i) }); err != nil {
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
		if err := ForContext(context.Background(), n, workers, func(i int) { hits[i].Add(1) }); err != nil {
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
	if err := ForContext(nil, 3, 2, func(int) { ran.Add(1) }); err != nil {
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
			_ = ForContext(context.Background(), 64, workers, func(i int) {
				if i == 7 {
					panic("boom")
				}
				completed.Add(1)
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
		_ = ForContext(context.Background(), 256, 8, func(i int) { panic(i) })
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
	err := ForContext(ctx, n, 4, func(i int) {
		if started.Add(1) == 8 {
			cancel()
		}
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
		err := ForContext(ctx, 50, workers, func(int) { ran.Add(1) })
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
	err := ForContext(ctx, 1<<30, 2, func(int) { time.Sleep(10 * time.Microsecond) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}
