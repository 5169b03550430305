// Package parallel holds the concurrency helpers every hot loop in the tree
// shares, so each one parallelizes, fails and memoizes the same way.
//
// ForContext is the one-shot fan-out behind the exploration engine's batch
// evaluator, grid placement, the transient case-study cells
// (internal/experiments) and the hybrid SoC sweep: a bounded worker pool
// pulling indices off an atomic counter, with the jobs writing results
// into per-index slots so merge order stays deterministic. The calling
// goroutine is one of the pool's workers rather than a bystander waiting
// for the others. ForContext owns the run-control contract too. The first
// failing job stops dispatch and cancels its siblings, and the root cause
// rather than a sibling's cancellation is reported. A panic inside any job
// is recovered, tagged with its job index, and re-raised exactly once on
// the caller's goroutine; a bare go-statement panic would kill the process
// from an anonymous goroutine with no indication of which job died.
//
// Pool is the long-lived counterpart for streams of jobs (ivoryd's request
// queue), and Memo the size-capped memo behind topology's Analyze cache and
// pds's trace cache.
package parallel

import (
	"context"
	"errors"
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

// ForContext runs fn(ctx, i) for every i in [0, n), spread over
// min(workers, n) workers fed by an atomic index counter: the calling
// goroutine and min(workers, n)-1 goroutines it spawns. workers <= 0
// selects runtime.NumCPU(); workers == 1 runs the loop inline in ascending
// order with no goroutines (the serial reference path), so results written
// to per-index slots stay bit-identical to the serial path for every worker
// count. fn must be safe for concurrent invocation and must confine its
// writes to data owned by index i; any job, index 0 included, may run on
// the calling goroutine.
//
// Three behaviours are layered on top:
//
//   - Failure: the first job to return an error stops the dispatch of new
//     jobs and cancels the ctx handed to the jobs still in flight. After
//     they drain, ForContext returns the lowest-index error that is not a
//     cancellation (context.Canceled or context.DeadlineExceeded), so a
//     real failure is never masked by the cancellations it caused in its
//     siblings; failing that, the lowest-index cancellation error.
//   - Cancellation: when ctx (nil selects context.Background()) is
//     cancelled, no new jobs are dispatched; with no job error to report,
//     ctx.Err() is returned once in-flight jobs drain. Jobs that already
//     completed have fully written their slots — the caller sees a clean
//     prefix-of-work, never a torn write.
//   - Panic containment: a panic in any job is recovered and tagged with
//     its job index; it stops dispatch like a failure, in-flight jobs
//     drain, and the first recovered panic is re-raised exactly once on
//     the caller's goroutine as a *PanicError.
func ForContext(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
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
	if workers == 1 {
		// No job is ever in flight beside the current one, so the first
		// error is the result and there is nothing to cancel.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			pe, err := runJob(ctx, i, fn)
			if pe != nil {
				panic(pe)
			}
			if err != nil {
				return err
			}
		}
		// A cancellation that lands during the final job still reports
		// ctx.Err(), as on the pooled path.
		return ctx.Err()
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := &fanOut{n: n, fn: fn, ctx: runCtx, cancel: cancel, failedI: n, cancelledI: n}
	// The caller is one of the workers: it spawns workers-1 goroutines and
	// pulls indices itself instead of idling in wg.Wait, so a pool of two
	// needs one goroutine, not two waiting for a P. runJob recovers every
	// panic, so the caller always reaches wg.Wait.
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.work(ctx)
		}()
	}
	f.work(ctx)
	// wg.Wait is the happens-before edge that makes every spawned worker's
	// writes (job slots, the recorded outcome) visible here.
	f.wg.Wait()
	switch {
	case f.recovered != nil:
		panic(f.recovered)
	case f.failed != nil:
		return f.failed
	case f.cancelled != nil:
		return f.cancelled
	}
	return ctx.Err()
}

// fanOut is the shared state of one pooled ForContext call, held in one
// allocation.
type fanOut struct {
	n      int
	fn     func(context.Context, int) error
	ctx    context.Context // the jobs' ctx, cancelled by the first failure
	cancel context.CancelFunc
	// next is the dispatch counter: a worker claims index next-1 by
	// incrementing it, and a failure closes dispatch by moving it to n.
	next atomic.Int64
	wg   sync.WaitGroup

	mu sync.Mutex
	// The first recovered panic wins; later ones (other workers may panic
	// before dispatch closes) are dropped so the caller fails exactly once.
	recovered           *PanicError
	failed, cancelled   error
	failedI, cancelledI int
}

// work runs jobs until dispatch closes, the indices run out or parent,
// the caller's ctx, is cancelled. It polls parent's Done channel: a
// receive on it, unlike parent.Err(), takes no lock, so the workers do not
// contend on the parent's mutex once per job.
func (f *fanOut) work(parent context.Context) {
	for {
		select {
		case <-parent.Done():
			return
		default:
		}
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if pe, err := runJob(f.ctx, i, f.fn); pe != nil || err != nil {
			f.record(i, pe, err)
		}
	}
}

// record keeps a failed job's outcome under the error policy, closes
// dispatch and cancels the jobs in flight.
func (f *fanOut) record(i int, pe *PanicError, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case pe != nil:
		if f.recovered == nil {
			f.recovered = pe
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		if i < f.cancelledI {
			f.cancelled, f.cancelledI = err, i
		}
	case i < f.failedI:
		f.failed, f.failedI = err, i
	}
	f.next.Store(int64(f.n))
	f.cancel()
}

// runJob runs fn(ctx, i), recovering a panic into a *PanicError tagged
// with the job index.
func runJob(ctx context.Context, i int, fn func(context.Context, int) error) (pe *PanicError, err error) {
	defer func() {
		if r := recover(); r != nil {
			pe = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return nil, fn(ctx, i)
}
