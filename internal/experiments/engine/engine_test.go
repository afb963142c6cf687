package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderIsDeterministic(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapReturnsLowestIndexedError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	// Make the high-index job fail fast and the low-index job fail slow, so
	// a naive first-error-wins pool would report the wrong one.
	_, err := Map(context.Background(), 4, 8, func(_ context.Context, i int) (int, error) {
		switch i {
		case 2:
			time.Sleep(30 * time.Millisecond)
			return 0, errLow
		case 7:
			return 0, errHigh
		default:
			return i, nil
		}
	})
	if !errors.Is(err, errLow) && !errors.Is(err, errHigh) {
		t.Fatalf("err = %v", err)
	}
	// Whichever job got to run, the reported error must be the lowest index
	// among those that actually failed; with worker counts ≥ 2 both run.
	if errors.Is(err, errHigh) {
		t.Fatalf("got high-index error %v, want lowest-indexed failure", err)
	}
}

// A job that only saw the pool's own cancellation did not fail: job 2
// blocks until the pool cancels it, which happens because job 1 failed,
// so job 1's error is the one to report.
func TestMapReportsCauseNotInducedCancel(t *testing.T) {
	boom := errors.New("boom")
	_, err := Map(context.Background(), 3, 3, func(ctx context.Context, i int) (int, error) {
		switch i {
		case 1:
			return 0, boom
		case 2:
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failure that cancelled the pool", err)
	}
}

// Fail-fast reports what a sequential run hits first: when job 1 fails
// while job 0 is still running, job 0 keeps a live context and its own
// later failure is the one returned.
func TestFailFastLetsLowerJobsFinish(t *testing.T) {
	errLow, errHigh := errors.New("job 0"), errors.New("job 1")
	failed := make(chan struct{})
	_, err := Map(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			close(failed)
			return 0, errHigh
		}
		<-failed
		// Give the pool ample time to act on job 1's failure.
		select {
		case <-ctx.Done():
			t.Error("job 0's context was canceled by job 1's failure")
		case <-time.After(50 * time.Millisecond):
		}
		return 0, errLow
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want job 0's own failure", err)
	}
}

func TestMapCanceledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 10, func(context.Context, int) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapErrorCancelsPool(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 1, 1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n > 4 {
		t.Fatalf("pool kept claiming jobs after failure: ran %d", n)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inflight, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(context.Context, int) (int, error) {
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inflight.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}

func TestMapTimedRecordsElapsed(t *testing.T) {
	res, err := MapTimed(context.Background(), 2, 4, func(context.Context, int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Elapsed <= 0 {
			t.Errorf("job %d elapsed = %v", i, r.Elapsed)
		}
	}
}

func TestForEach(t *testing.T) {
	out := make([]int, 50)
	err := ForEach(context.Background(), 8, len(out), func(_ context.Context, i int) error {
		out[i] = i + 1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ req, jobs, min, max int }{
		{0, 10, 1, 1 << 20}, // GOMAXPROCS-sized, clamped to jobs
		{8, 4, 4, 4},
		{-1, 3, 1, 3},
		{2, 100, 2, 2},
		{5, 0, 1, 1},
	}
	for _, c := range cases {
		got := Workers(c.req, c.jobs)
		if got < c.min || got > c.max {
			t.Errorf("Workers(%d, %d) = %d, want in [%d, %d]", c.req, c.jobs, got, c.min, c.max)
		}
	}
}

func ExampleMap() {
	squares, _ := Map(context.Background(), 4, 5, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	fmt.Println(squares)
	// Output: [0 1 4 9 16]
}
