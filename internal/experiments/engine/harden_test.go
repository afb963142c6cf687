package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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

func TestRetriesEventuallySucceed(t *testing.T) {
	var attempts atomic.Int64
	results, err := MapTimedOpts(context.Background(), 1, 1, nil,
		Options{Retries: 3, Backoff: time.Millisecond},
		func(_ context.Context, i int) (int, error) {
			if attempts.Add(1) < 3 {
				return 0, fmt.Errorf("transient")
			}
			return 42, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Value != 42 {
		t.Errorf("value = %d", results[0].Value)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

func TestRetriesExhausted(t *testing.T) {
	var attempts atomic.Int64
	_, err := MapTimedOpts(context.Background(), 1, 1, nil,
		Options{Retries: 2, Backoff: time.Millisecond},
		func(_ context.Context, i int) (int, error) {
			attempts.Add(1)
			return 0, fmt.Errorf("permanent")
		})
	if err == nil {
		t.Fatal("expected failure after retry budget")
	}
	if got := attempts.Load(); got != 3 { // 1 initial + 2 retries
		t.Errorf("attempts = %d, want 3", got)
	}
}

func TestRetryRunsIdenticalJobIndex(t *testing.T) {
	// The determinism contract: a retried job sees the same index, so a
	// seed derived from it reproduces the identical job.
	var seen []int
	var mu atomic.Int64
	results, err := MapTimedOpts(context.Background(), 1, 4, nil,
		Options{Retries: 1, Backoff: time.Millisecond},
		func(_ context.Context, i int) (int, error) {
			if i == 2 && mu.Add(1) == 1 {
				seen = append(seen, i)
				return 0, fmt.Errorf("first attempt fails")
			}
			seen = append(seen, i)
			return i * i, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != i*i {
			t.Errorf("results[%d] = %d, want %d", i, r.Value, i*i)
		}
	}
	// Single worker: 0, 1, 2 (fail), 2 (retry), 3.
	want := []int{0, 1, 2, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("executions = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("executions = %v, want %v", seen, want)
		}
	}
}

func TestFailFastStillCancelsWithOptions(t *testing.T) {
	var ran atomic.Int64
	_, err := MapTimedOpts(context.Background(), 1, 100, nil, Options{},
		func(_ context.Context, i int) (int, error) {
			ran.Add(1)
			if i == 2 {
				return 0, fmt.Errorf("early failure")
			}
			return i, nil
		})
	if err == nil || err.Error() != "early failure" {
		t.Fatalf("fail-fast must return the raw error: %v", err)
	}
	if got := ran.Load(); got > 4 {
		t.Errorf("%d jobs ran after the failure should have canceled the pool", got)
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
