// Package parallel holds the tiny fan-out helper shared by the design-space
// exploration engine and the grid placement heuristic. It exists so every
// hot loop parallelizes the same way: a bounded worker pool pulling indices
// off an atomic counter, with the caller responsible for writing results
// into per-index slots so merge order stays deterministic.
//
// ForContext adds the run-control contract on top: a panic inside any job
// is recovered, tagged with its job index, and re-raised exactly once on
// the caller's goroutine (a bare go-statement panic would kill the process
// from an anonymous goroutine with no indication of which job died), and
// cancelling the context stops the dispatch of new jobs — in-flight jobs
// drain, then ctx.Err() is returned.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a job so it can be re-raised on
// the caller's goroutine with the failing job identified. The original
// panic value and the panicking goroutine's stack are preserved.
type PanicError struct {
	// Index is the job index passed to the function that panicked.
	Index int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace, captured at the
	// recovery point.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", e.Index, e.Value)
}

// ForContext runs fn(i) for every i in [0, n), spread over min(workers, n)
// goroutines fed by an atomic index counter. workers <= 0 selects
// runtime.NumCPU(); workers == 1 runs the loop inline in ascending order
// with no goroutines (the serial reference path), so results written to
// per-index slots stay bit-identical to the serial path for every worker
// count. fn must be safe for concurrent invocation and must confine its
// writes to data owned by index i.
//
// Two behaviours are layered on top:
//
//   - Panic containment: a panic in any fn(i) is recovered and tagged with
//     its job index; remaining jobs are not dispatched, in-flight jobs
//     finish, and the first recovered panic is re-raised exactly once on
//     the caller's goroutine as a *PanicError.
//   - Cancellation: when ctx (nil selects context.Background()) is
//     cancelled, no new jobs are dispatched; after in-flight jobs drain,
//     ctx.Err() is returned. Jobs that already completed have fully
//     written their slots — the caller sees a clean prefix-of-work, never
//     a torn write.
func ForContext(ctx context.Context, n, workers int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	// The first recovered panic wins; later ones (other workers may fail
	// before they observe stop) are dropped so the caller fails exactly
	// once.
	var (
		panicOnce sync.Once
		recovered *PanicError
		stop      atomic.Bool
	)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() {
					recovered = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
				})
				stop.Store(true)
			}
		}()
		fn(i)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			run(i)
			if stop.Load() {
				panic(recovered)
			}
		}
		// Mirror the pooled path: a cancellation that lands during the
		// final job still reports ctx.Err(), so both paths agree.
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if stop.Load() || ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	// wg.Wait is the happens-before edge that makes every worker's writes
	// (job slots, recovered) visible here.
	wg.Wait()
	if recovered != nil {
		panic(recovered)
	}
	return ctx.Err()
}
