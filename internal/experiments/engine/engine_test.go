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
		got, err := MapTimedOpts(context.Background(), workers, 100, nil, Options{}, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, r := range got {
			if r.Value != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, r.Value, i*i)
			}
		}
	}
}

func TestMapCanceledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MapTimedOpts(ctx, 4, 10, nil, Options{}, func(context.Context, int) (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inflight, peak atomic.Int64
	_, err := MapTimedOpts(context.Background(), workers, 64, nil, Options{}, func(context.Context, int) (int, error) {
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
	res, err := MapTimedOpts(context.Background(), 2, 4, nil, Options{}, func(context.Context, int) (int, error) {
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

func TestWorkers(t *testing.T) {
	cases := []struct{ req, jobs, min, max int }{
		{0, 10, 1, 1 << 20}, // GOMAXPROCS-sized, clamped to jobs
		{8, 4, 4, 4},
		{-1, 3, 1, 3},
		{2, 100, 2, 2},
		{5, 0, 1, 1},
	}
	for _, c := range cases {
		got := workers(c.req, c.jobs)
		if got < c.min || got > c.max {
			t.Errorf("workers(%d, %d) = %d, want in [%d, %d]", c.req, c.jobs, got, c.min, c.max)
		}
	}
}

func ExampleMapTimedOpts() {
	results, _ := MapTimedOpts(context.Background(), 4, 5, nil, Options{}, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	squares := make([]int, len(results))
	for i, r := range results {
		squares[i] = r.Value
	}
	fmt.Println(squares)
	// Output: [0 1 4 9 16]
}
