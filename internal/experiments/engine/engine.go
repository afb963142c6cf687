// Package engine is the parallel execution core of the experiment suite:
// a bounded worker pool that fans independent jobs (seed replications,
// sweep points) out over GOMAXPROCS-sized concurrency while keeping the
// result order — and therefore every rendered table and CSV — identical
// to a sequential run.
//
// Determinism contract: jobs are identified by their index in [0, n),
// and a job derives all its randomness from that index, so it is a pure
// function of it: a job that fails once fails the same way every time,
// which is why a job runs exactly once. Results land in a slice at their
// own index, so the caller's merge loop reads them in exactly the order a
// sequential loop would have produced them. A pool runs every job, even
// after failures, and joins the failures in index order — the order a
// sequential run would have met them. A canceled parent context stops
// claiming and cancels every job.
//
// Hardening: Do is the one way to run a job, for the pool's workers and
// for callers that run one job at a time (the campaign daemon, the
// distributed worker). A panicking job never kills the process — Do
// recovers it into a *PanicError carrying the job index and stack — and
// an optional per-job timeout abandons a job that overruns.
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

// JobError tags a job failure with its index, so aggregated errors stay
// attributable. Unwrap exposes the underlying error to errors.Is/As.
type JobError struct {
	Job int
	Err error
}

// Error formats the failure with its job index.
func (e *JobError) Error() string { return fmt.Sprintf("job %d: %v", e.Job, e.Err) }

// Unwrap exposes the wrapped error.
func (e *JobError) Unwrap() error { return e.Err }

// Options harden a pool run. The zero value sets no timeout.
type Options struct {
	// Timeout bounds each job; 0 means none. A job that overruns fails
	// with a context.DeadlineExceeded-wrapping error (see Do).
	Timeout time.Duration
	// KeepGoing is ignored: every pool runs every job and aggregates the
	// failures. The field stays so that existing literals still compile.
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

// MapTimedOpts runs fn(ctx, i) through Do for every i in [0, n) over a
// pool of at most `requested` goroutines (non-positive: GOMAXPROCS) and
// returns the results indexed by job, each with its elapsed wall clock.
// Every job runs, whatever the others do. When some fail, the results
// come back alongside an aggregate error: errors.Join, in index order, of
// each failure — a *PanicError as it is, anything else wrapped in a
// *JobError naming its index; a failed job's slot holds the zero value.
// A canceled parent context stops the pool from claiming jobs, and when
// no job failed it surfaces as ctx.Err() with nil results.
//
// Pool telemetry goes to probe: Do counts each job, the resolved pool
// size lands in the "engine.workers" gauge, and the pool's utilization —
// total job time over workers × wall time, 1.0 meaning every worker was
// busy the whole run — in "engine.pool_utilization". Telemetry never
// affects job scheduling or result order; a nil probe disables it.
func MapTimedOpts[T any](ctx context.Context, requested, n int, probe obs.Probe, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]Result[T], error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	probe = obs.Or(probe)
	workers := workers(requested, n)

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
				results[i], errs[i] = Do(ctx, i, opts.Timeout, probe, fn)
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
		return results, errors.Join(joined...)
	}
	// No job failed, so the only way ctx can be done here is a parent
	// cancellation: some jobs were never claimed and the result set is
	// incomplete.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Do runs job i once and times it. A panic in fn comes back as a
// *PanicError carrying i and the stack. With a positive timeout, fn runs
// on its own goroutine under a deadline context; a job that overruns is
// abandoned (its goroutine exits whenever fn next honors its context) and
// fails with an error wrapping context.DeadlineExceeded, while a parent
// cancellation comes back as ctx.Err(). The job is counted into probe's
// "engine.jobs" and its latency observed into "engine.job_sec"; a nil
// probe records nothing.
func Do[T any](ctx context.Context, i int, timeout time.Duration, probe obs.Probe, fn func(ctx context.Context, i int) (T, error)) (res Result[T], err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Job: i, Value: r, Stack: debug.Stack()}
		}
		res.Elapsed = time.Since(start)
		if probe != nil && probe.Enabled() {
			probe.Add("engine.jobs", 1)
			probe.Observe("engine.job_sec", res.Elapsed.Seconds())
		}
	}()
	if timeout <= 0 {
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
		res.Value, err = out.v, out.err
		if err != nil && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = fmt.Errorf("job %d timed out after %v: %w", i, timeout, err)
		}
		return res, err
	case <-actx.Done():
		if cerr := ctx.Err(); cerr != nil {
			// Parent cancellation, not a per-job timeout.
			return res, cerr
		}
		return res, fmt.Errorf("job %d timed out after %v: %w", i, timeout, context.DeadlineExceeded)
	}
}
