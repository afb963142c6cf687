package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/obs"
)

func TestPanicRecoveredAsError(t *testing.T) {
	_, err := MapTimedOpts(context.Background(), 4, 10, nil, Options{}, func(_ context.Context, i int) (int, error) {
		if i == 3 {
			panic("boom at three")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panic did not surface as error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T is not a PanicError: %v", err, err)
	}
	if pe.Job != 3 {
		t.Errorf("PanicError.Job = %d, want 3", pe.Job)
	}
	if pe.Value != "boom at three" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "harden_test.go") {
		t.Error("PanicError.Stack does not point at the panic site")
	}
	if !strings.Contains(err.Error(), "job 3 panicked: boom at three") {
		t.Errorf("Error() = %q", err.Error())
	}
}

func TestKeepGoingCompletesSweepWithPartialResults(t *testing.T) {
	results, err := MapTimedOpts(context.Background(), 4, 20, nil, Options{KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			switch i {
			case 5:
				return 0, fmt.Errorf("five failed")
			case 11:
				panic("eleven blew up")
			}
			return i * 10, nil
		})
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	if results == nil {
		t.Fatal("keep-going mode must return partial results")
	}
	for i, r := range results {
		if i == 5 || i == 11 {
			continue
		}
		if r.Value != i*10 {
			t.Errorf("results[%d] = %d, want %d — a failure cost other jobs their output", i, r.Value, i*10)
		}
	}
	var je *JobError
	if !errors.As(err, &je) || je.Job != 5 {
		t.Errorf("aggregate missing JobError for job 5: %v", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Job != 11 {
		t.Errorf("aggregate missing PanicError for job 11: %v", err)
	}
	if !strings.Contains(err.Error(), "five failed") || !strings.Contains(err.Error(), "eleven blew up") {
		t.Errorf("aggregate error lost detail: %v", err)
	}
}

func TestKeepGoingNoErrors(t *testing.T) {
	results, err := MapTimedOpts(context.Background(), 2, 8, nil, Options{KeepGoing: true},
		func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != i {
			t.Errorf("results[%d] = %d", i, r.Value)
		}
	}
}

func TestJobTimeout(t *testing.T) {
	start := time.Now()
	_, err := MapTimedOpts(context.Background(), 2, 3, nil, Options{Timeout: 30 * time.Millisecond},
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				// Honors its context: blocks until the deadline.
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("expected timeout error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
	if !strings.Contains(err.Error(), "job 1 timed out after 30ms") {
		t.Errorf("timeout error lacks job context: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestJobTimeoutAbandonsHungJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, err := MapTimedOpts(context.Background(), 2, 2, nil,
		Options{Timeout: 20 * time.Millisecond, KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			if i == 0 {
				// Ignores its context entirely — the attempt must still be
				// abandoned and reported, not block the sweep.
				<-release
			}
			return i, nil
		})
	if err == nil {
		t.Fatal("hung job not reported")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not wrap DeadlineExceeded: %v", err)
	}
}

func TestKeepGoingHonorsParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	_, err := MapTimedOpts(ctx, 1, 1000, nil, Options{KeepGoing: true},
		func(_ context.Context, i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return i, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 10 {
		t.Errorf("%d jobs ran after parent cancel", got)
	}
}

// A failure stops nothing: every job of the pool runs once, and the
// failures come back joined in index order.
func TestPoolRunsEveryJobOnce(t *testing.T) {
	var ran atomic.Int64
	results, err := MapTimedOpts(context.Background(), 1, 10, nil, Options{},
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 2 || i == 7 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
	if got := ran.Load(); got != 10 {
		t.Errorf("ran %d jobs, want each of the 10 once", got)
	}
	if results[9].Value != 9 {
		t.Errorf("results[9] = %d, want 9", results[9].Value)
	}
	if err == nil || err.Error() != "job 2: job 2 failed\njob 7: job 7 failed" {
		t.Errorf("err = %v, want both failures in index order", err)
	}
}

// Do runs a job once, hands back its own error unwrapped, recovers a
// panic, and counts every job into the probe.
func TestDoRunsOnceAndCounts(t *testing.T) {
	rec := obs.NewRecorder()
	boom := errors.New("boom")
	var calls atomic.Int64
	if _, err := Do(context.Background(), 4, 0, rec, func(context.Context, int) (int, error) {
		calls.Add(1)
		return 0, boom
	}); err != boom {
		t.Errorf("err = %v, want the job's own error", err)
	}
	_, err := Do(context.Background(), 5, time.Second, rec, func(context.Context, int) (int, error) {
		calls.Add(1)
		panic("five")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Job != 5 {
		t.Errorf("err = %v, want a *PanicError for job 5", err)
	}
	if calls.Load() != 2 {
		t.Errorf("%d calls, want one per Do", calls.Load())
	}
	if got := rec.Counter("engine.jobs"); got != 2 {
		t.Errorf("engine.jobs = %v, want 2", got)
	}
	if h := rec.Histogram("engine.job_sec"); h.N() != 2 {
		t.Errorf("engine.job_sec holds %d samples, want 2", h.N())
	}
}
