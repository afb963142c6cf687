// Package engine is the parallel execution core of the experiment suite:
// a bounded worker pool that fans independent jobs (seed replications,
// sweep points) out over GOMAXPROCS-sized concurrency while keeping the
// result order — and therefore every rendered table and CSV — identical
// to a sequential run.
//
// Determinism contract: jobs are identified by their index in [0, n).
// Results land in a slice at their own index, so the caller's merge loop
// reads them in exactly the order a sequential loop would have produced
// them. When several jobs fail, the error of the lowest-indexed failure
// is returned — again matching what a sequential run would have seen
// first. A failure at index i stops workers from claiming new jobs and
// cancels the in-flight jobs above i; jobs below i run to completion,
// since a sequential run would have reached them first. A canceled
// parent context stops claiming and cancels every job.
//
// Hardening: a panicking job never kills the process — the worker
// recovers it into a *PanicError carrying the job index and stack.
// MapTimedOpts adds per-attempt timeouts, bounded retry-with-backoff,
// and a keep-going mode that runs every job and aggregates failures
// (errors.Join of JobError/PanicError in index order) alongside the
// partial results.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reprolab/wrsn-csa/internal/obs"
)

// Retry backoff bounds: the first retry waits Options.Backoff
// (DefaultBackoff when unset), doubling per attempt up to MaxBackoff.
const (
	DefaultBackoff = 100 * time.Millisecond
	MaxBackoff     = 5 * time.Second
)

// Result carries one job's value and its wall-clock cost, so callers can
// report per-point timing without re-instrumenting every driver.
type Result[T any] struct {
	Value   T
	Elapsed time.Duration
}

// PanicError is a job panic converted to an error: the worker recovers,
// the process survives, and the sweep's merge order is untouched. It
// carries the job index and the goroutine stack at the panic site.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

// Error formats the panic with its stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// JobError tags a job failure with its index, so aggregated keep-going
// errors stay attributable. Unwrap exposes the underlying error to
// errors.Is/As.
type JobError struct {
	Job int
	Err error
}

// Error formats the failure with its job index.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Job, e.Err) }

// Unwrap exposes the wrapped error.
func (e *JobError) Unwrap() error { return e.Err }

// Options harden a pool run. The zero value is the classic fail-fast
// pool: no timeout, no retries, and the lowest-indexed failure returns.
type Options struct {
	// Timeout bounds each attempt of each job; 0 means none. A job that
	// overruns fails with a context.DeadlineExceeded-wrapping error (the
	// overrunning attempt is abandoned; its goroutine exits whenever the
	// job function honors its context).
	Timeout time.Duration
	// Retries is how many additional attempts a failed job gets. Job
	// functions derive all randomness from the job index, so a retry
	// re-runs bit-identically — retries only help against environmental
	// failures (timeouts, resource exhaustion), not deterministic bugs.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt up to
	// MaxBackoff; non-positive gets DefaultBackoff.
	Backoff time.Duration
	// KeepGoing runs every job even after failures: the pool is not
	// canceled, partial results are returned alongside an aggregate
	// error (one JobError or PanicError per failed job, joined in index
	// order). Without it a failure stops the pool, canceling only the
	// jobs above it, and the lowest-indexed error returns — the classic
	// fail-fast contract.
	KeepGoing bool
}

// workers normalizes a worker-count request: non-positive means "size to
// the hardware" (GOMAXPROCS), and a pool never needs more workers than
// jobs.
func workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// MapTimedOpts runs fn(ctx, i) for every i in [0, n) over a pool of at
// most `requested` goroutines (non-positive: GOMAXPROCS) and returns the
// results indexed by job, each with its elapsed wall clock. By default
// (zero Options) a failure cancels the in-flight jobs above it so they
// can abort promptly, and lets the ones below it finish; the returned
// error is the lowest-indexed failure, which is what a sequential run
// would have hit first. A canceled parent context surfaces as its
// ctx.Err(). A panicking job always surfaces as a *PanicError; Options
// adds per-attempt timeouts, bounded retry-with-backoff, and keep-going
// error aggregation (see Options for the exact semantics of each knob).
//
// Pool telemetry goes to probe: each job's latency is observed into the
// "engine.job_sec" histogram and counted into "engine.jobs", the
// resolved pool size lands in the "engine.workers" gauge, and the pool's
// utilization — total job time over workers × wall time, 1.0 meaning
// every worker was busy the whole run — in "engine.pool_utilization".
// Telemetry never affects job scheduling or result order; a nil probe
// disables it.
func MapTimedOpts[T any](ctx context.Context, requested, n int, probe obs.Probe, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	probe = obs.Or(probe)
	workers := workers(requested, n)

	ff := newFailFast(n)
	poolStart := time.Now()
	results := make([]Result[T], n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				jctx := ctx
				if !opts.KeepGoing {
					if jctx = ff.start(ctx, i); jctx == nil {
						return
					}
				}
				res, err := runJob(jctx, i, opts, fn)
				results[i] = res
				if probe.Enabled() {
					probe.Add("engine.jobs", 1)
					probe.Observe("engine.job_sec", res.Elapsed.Seconds())
				}
				errs[i] = err
				if !opts.KeepGoing && ff.finish(i, err) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if probe.Enabled() {
		var total time.Duration
		for _, r := range results {
			total += r.Elapsed
		}
		probe.Set("engine.workers", float64(workers))
		if wall := time.Since(poolStart); wall > 0 {
			probe.Set("engine.pool_utilization", total.Seconds()/(wall.Seconds()*float64(workers)))
		}
	}
	if opts.KeepGoing {
		var joined []error
		for i, err := range errs {
			if err == nil {
				continue
			}
			var pe *PanicError
			if errors.As(err, &pe) {
				// Already carries its job index and stack.
				joined = append(joined, err)
			} else {
				joined = append(joined, &JobError{Job: i, Err: err})
			}
		}
		if len(joined) > 0 {
			// Partial results alongside the aggregate: failed jobs' slots
			// hold zero values, everything else is complete.
			return results, errors.Join(joined...)
		}
	} else {
		// Only jobs above the lowest failure were canceled, so the
		// lowest-indexed error is a real failure, never an echo of the
		// pool's own cancel.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	// No job failed, so the only way ctx can be done here is a parent
	// cancellation: some jobs were never claimed and the result set is
	// incomplete.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// failFast stops a pool at its lowest failure the way a sequential run
// would. Claims are monotone, so when job i fails every lower index is
// already claimed: those jobs run on (one may still fail, and a
// sequential run would have hit it first), while claiming stops and the
// in-flight jobs above i are canceled through their own contexts.
type failFast struct {
	mu      sync.Mutex
	failed  int // lowest failed index so far; n while none has failed
	cancels map[int]context.CancelFunc
}

func newFailFast(n int) *failFast {
	return &failFast{failed: n, cancels: make(map[int]context.CancelFunc)}
}

// start returns job i's context, or nil when a lower job has failed and
// i must not run.
func (f *failFast) start(ctx context.Context, i int) context.Context {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i > f.failed {
		return nil
	}
	jctx, cancel := context.WithCancel(ctx)
	f.cancels[i] = cancel
	return jctx
}

// finish releases job i's context and reports whether it failed; a new
// lowest failure cancels the in-flight jobs above it.
func (f *failFast) finish(i int, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cancels[i]()
	delete(f.cancels, i)
	if err == nil {
		return false
	}
	if i < f.failed {
		f.failed = i
		for j, cancel := range f.cancels {
			if j > i {
				cancel()
			}
		}
	}
	return true
}

// runJob executes one job with the configured retry budget: each failed
// attempt (error, panic, or timeout) is retried after an exponentially
// growing backoff until the budget or the pool context runs out.
func runJob[T any](ctx context.Context, i int, opts Options, fn func(ctx context.Context, i int) (T, error)) (Result[T], error) {
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	for attempt := 0; ; attempt++ {
		res, err := runAttempt(ctx, i, opts.Timeout, fn)
		if err == nil || attempt >= opts.Retries || ctx.Err() != nil {
			return res, err
		}
		if !sleepBackoff(ctx, backoff) {
			return res, err
		}
		if backoff *= 2; backoff > MaxBackoff {
			backoff = MaxBackoff
		}
	}
}

// runAttempt executes one attempt of one job, converting a panic into a
// *PanicError. With a timeout the job function runs on its own goroutine
// under a deadline context; an attempt that overruns is abandoned (its
// goroutine exits when fn next honors its context) and reported as a
// timeout.
func runAttempt[T any](ctx context.Context, i int, timeout time.Duration, fn func(ctx context.Context, i int) (T, error)) (res Result[T], err error) {
	start := time.Now()
	if timeout <= 0 {
		defer func() {
			res.Elapsed = time.Since(start)
			if r := recover(); r != nil {
				err = &PanicError{Job: i, Value: r, Stack: debug.Stack()}
			}
		}()
		res.Value, err = fn(ctx, i)
		return res, err
	}

	actx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: &PanicError{Job: i, Value: r, Stack: debug.Stack()}}
			}
		}()
		v, ferr := fn(actx, i)
		ch <- outcome{v: v, err: ferr}
	}()
	select {
	case out := <-ch:
		res = Result[T]{Value: out.v, Elapsed: time.Since(start)}
		err = out.err
		if err != nil && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = fmt.Errorf("job %d timed out after %v: %w", i, timeout, err)
		}
		return res, err
	case <-actx.Done():
		res = Result[T]{Elapsed: time.Since(start)}
		if cerr := ctx.Err(); cerr != nil {
			// Pool or parent cancellation, not a per-job timeout.
			return res, cerr
		}
		return res, fmt.Errorf("job %d timed out after %v: %w", i, timeout, context.DeadlineExceeded)
	}
}

// sleepBackoff waits d, or returns false early when ctx is done.
func sleepBackoff(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
