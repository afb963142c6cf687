package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
)

// gateRunner returns a runner that parks every job on a gate channel
// (close to release) and counts entries on started.
func gateRunner(started chan<- string, gate <-chan struct{}) Runner {
	return func(ctx context.Context, spec jobspec.Spec, _ jobspec.RunOptions) (*jobspec.Result, error) {
		if started != nil {
			started <- spec.Kind // kind doubles as a job tag in tests
		}
		select {
		case <-gate:
			return &jobspec.Result{Outcome: nil}, errors.New("gate runner has no outcome")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// okRunner completes instantly with a real (tiny) campaign result so
// digest/summary paths exercise for real.
func okRunner(t *testing.T) Runner {
	t.Helper()
	res, err := jobspec.Run(context.Background(), quickSpec(42), obs.Nop())
	if err != nil {
		t.Fatal(err)
	}
	return func(ctx context.Context, _ jobspec.Spec, _ jobspec.RunOptions) (*jobspec.Result, error) {
		return res, nil
	}
}

// quickSpec is a fast-but-real legit campaign (~ms scale).
func quickSpec(seed uint64) jobspec.Spec {
	s := jobspec.Default(seed, 40)
	s.Campaign.HorizonSec = 86400
	return s
}

func shutdownOrFail(t *testing.T, s *Service, timeout time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	s := New(Options{QueueDepth: 2, Workers: 1, Runner: gateRunner(started, gate)})
	defer func() {
		close(gate)
		shutdownOrFail(t, s, 10*time.Second)
	}()

	// One job occupies the worker (wait for pickup), two fill the queue.
	if _, err := s.Submit(quickSpec(0)); err != nil {
		t.Fatalf("submit 0: %v", err)
	}
	<-started
	for i := 1; i < 3; i++ {
		if _, err := s.Submit(quickSpec(uint64(i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	_, err := s.Submit(quickSpec(99))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submit returned %v, want ErrQueueFull", err)
	}
	// Rejection must not leak a job record.
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("after rejection %d jobs recorded, want 3", got)
	}
}

func TestGracefulDrainFinishesInFlight(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	s := New(Options{QueueDepth: 8, Workers: 2, Runner: func(ctx context.Context, spec jobspec.Spec, _ jobspec.RunOptions) (*jobspec.Result, error) {
		started <- spec.Kind
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return jobspec.Run(ctx, spec, obs.Nop())
	}})

	const jobs = 4 // 2 in flight, 2 queued at drain time
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		st, err := s.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	<-started
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()

	// Intake must close immediately, well before the drain completes.
	waitFor(t, time.Second, s.Draining)
	if _, err := s.Submit(quickSpec(50)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain returned %v, want ErrDraining", err)
	}

	close(gate) // release the workers; queued jobs must still run
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Errorf("job %s drained to %s (err %+v), want done", id, st.State, st.Error)
		}
		if st.Digest == "" {
			t.Errorf("job %s drained without a digest", id)
		}
	}
}

func TestForcedDrainCancelsInFlight(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan string, 8)
	s := New(Options{QueueDepth: 8, Workers: 1, Runner: gateRunner(started, gate)})

	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCanceled || got.Error == nil || got.Error.Kind != "canceled" {
		t.Errorf("forced-drain job = %s / %+v, want canceled with structured error", got.State, got.Error)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan string, 8)
	s := New(Options{QueueDepth: 8, Workers: 1, Runner: gateRunner(started, gate)})
	defer func() {
		close(gate)
		shutdownOrFail(t, s, 10*time.Second)
	}()

	run, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(quickSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Queued cancel is immediate.
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.Error == nil || st.Error.Kind != "canceled" {
		t.Errorf("queued cancel = %s / %+v", st.State, st.Error)
	}

	// Running cancel surfaces as a structured error shortly after.
	if _, err := s.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err = s.WaitDone(ctx, run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled || st.Error == nil || st.Error.Kind != "canceled" {
		t.Errorf("running cancel = %s / %+v, want structured canceled", st.State, st.Error)
	}
	// The canceled job must not expose an outcome.
	if _, _, err := s.Outcome(run.ID); err == nil {
		t.Error("canceled job served an outcome")
	}

	// Cancel on a terminal job is a no-op, not an error.
	if _, err := s.Cancel(run.ID); err != nil {
		t.Errorf("cancel of terminal job: %v", err)
	}
}

func TestPanicSurfacesAsStructuredError(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1, Runner: func(context.Context, jobspec.Spec, jobspec.RunOptions) (*jobspec.Result, error) {
		panic("campaign exploded")
	}})
	defer shutdownOrFail(t, s, 10*time.Second)

	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != "panic" {
		t.Fatalf("panicking job = %s / %+v, want failed/panic", got.State, got.Error)
	}
	if !strings.Contains(got.Error.Message, "campaign exploded") {
		t.Errorf("panic message lost: %q", got.Error.Message)
	}
}

func TestJobTimeoutViaEngineOptions(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	s := New(Options{
		QueueDepth: 2, Workers: 1,
		JobTimeout: 30 * time.Millisecond,
		Runner:     gateRunner(nil, gate),
	})
	defer shutdownOrFail(t, s, 10*time.Second)

	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == nil || got.Error.Kind != "timeout" {
		t.Fatalf("overrunning job = %s / %+v, want failed/timeout", got.State, got.Error)
	}
}

func TestDoneJobServesOutcomeDigestAndSummary(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1, Runner: okRunner(t)})
	defer shutdownOrFail(t, s, 10*time.Second)

	st, err := s.Submit(quickSpec(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("job = %s / %+v, want done", got.State, got.Error)
	}
	if got.Digest == "" || got.Summary == nil {
		t.Fatalf("done status missing digest/summary: %+v", got)
	}
	dig, body, err := s.Outcome(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if dig != got.Digest {
		t.Errorf("outcome digest %s != status digest %s", dig, got.Digest)
	}
	if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != got.Digest {
		t.Errorf("sha256(outcome body) = %x, status digest %s: the digest must hash the served bytes", sum, got.Digest)
	}
	if len(body) == 0 || !strings.Contains(string(body), "Solver") {
		t.Errorf("outcome body looks wrong: %.80s", body)
	}
}

// TestConcurrentSubmitPollCancelRace exists to put the whole surface
// under the race detector: many goroutines submitting, polling,
// canceling and streaming telemetry while workers run real campaigns.
func TestConcurrentSubmitPollCancelRace(t *testing.T) {
	s := New(Options{QueueDepth: 64, Workers: 4})
	defer shutdownOrFail(t, s, 60*time.Second)

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				st, err := s.Submit(quickSpec(uint64(g*10 + i)))
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				_, _ = s.Job(st.ID)
				_, _ = s.TelemetryWindow(st.ID)
				_, _ = s.Telemetry(st.ID)
				if i%3 == 2 {
					_, _ = s.Cancel(st.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, st := range s.Jobs() {
		if _, err := s.WaitDone(ctx, st.ID); err != nil {
			t.Fatalf("job %s never finished: %v", st.ID, err)
		}
	}
	for _, st := range s.Jobs() {
		if st.State == StateFailed {
			t.Errorf("job %s failed: %+v", st.ID, st.Error)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// A failed job's message is the runner's own error text: the daemon runs
// a job once, not as one entry of an aggregate.
func TestCampaignErrorMessageIsTheRunners(t *testing.T) {
	s := New(Options{QueueDepth: 2, Workers: 1, Runner: func(context.Context, jobspec.Spec, jobspec.RunOptions) (*jobspec.Result, error) {
		return nil, errors.New("campaign: resume: ledger has WaitSum NaN")
	}})
	defer shutdownOrFail(t, s, 10*time.Second)
	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := s.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateFailed || got.Error == nil || *got.Error != (ErrorInfo{Kind: "campaign", Message: "campaign: resume: ledger has WaitSum NaN"}) {
		t.Fatalf("failed job = %s / %+v, want failed/campaign with the runner's message", got.State, got.Error)
	}
}
