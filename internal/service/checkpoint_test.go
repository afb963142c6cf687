package service

// Daemon-level checkpoint/resume: a drain must park in-flight jobs at
// live checkpoints instead of canceling them, a restarted daemon must
// resume those jobs mid-campaign, and the resumed run must serve the
// exact digest an uninterrupted daemon would have — the service-layer
// face of the campaign fence in internal/campaign/checkpoint_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// slowSpec is a legit campaign big enough that a daemon drain reliably
// lands mid-run (default multi-day horizon, 400 nodes). At 120 nodes a
// run takes 2–4 ms, and on a loaded 2-vCPU host the worker finished it
// before the test's drain in 7 of 80 tries.
func slowSpec(seed uint64) jobspec.Spec {
	return jobspec.Default(seed, 400)
}

// parkRunner runs jobs for real but holds each at its first checkpoint
// past clock zero until a drain asks it to stop, so the drain lands
// mid-run however fast the campaign is: a 14-day 400-node legit run
// takes under 3 ms, and its first checkpoint, gated by a 1 ms
// CheckpointEvery, lands past day 11.
func parkRunner(ctx context.Context, spec jobspec.Spec, opts jobspec.RunOptions) (*jobspec.Result, error) {
	if opts.Checkpoint != nil {
		plan := *opts.Checkpoint
		sink, parked := plan.Sink, false
		plan.Sink = func(snap *snapshot.Snapshot) error {
			if err := sink(snap); err != nil {
				return err
			}
			for !parked && snap.ClockSec() > 0 && !plan.Stop() && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			parked = parked || snap.ClockSec() > 0
			return nil
		}
		opts.Checkpoint = &plan
	}
	return jobspec.RunOpts(ctx, spec, opts)
}

// expiredContext returns an already-expired context — the "drain
// deadline has passed, force the issue now" stand-in.
func expiredContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestDrainParksJobAtCheckpoint: with checkpointing armed, an expired
// drain finishes the in-flight job as "checkpointed" — spec and
// checkpoint stay on disk, status carries the checkpoint metadata — and
// the same drain with checkpointing off still cancels.
func TestDrainParksJobAtCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := New(Options{
		QueueDepth: 4, Workers: 1, Runner: parkRunner,
		PersistDir: dir, CheckpointEvery: time.Millisecond,
	})
	st, err := s.Submit(slowSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(expiredContext()); err != context.Canceled {
		t.Fatalf("expired drain returned %v, want context.Canceled", err)
	}
	got, err := s.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCheckpointed {
		t.Fatalf("drained job ended %s (err %+v), want checkpointed", got.State, got.Error)
	}
	if got.CheckpointAt == nil {
		t.Error("checkpointed status missing CheckpointAt")
	}
	if got.Error == nil || got.Error.Kind != "checkpointed" {
		t.Errorf("checkpointed job error = %+v, want kind \"checkpointed\"", got.Error)
	}
	for _, name := range []string{st.ID + ".json", st.ID + ".ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("drain did not leave %s behind: %v", name, err)
		}
	}

	// Same drain without checkpointing: the job is canceled the hard way.
	// The runner holds the job until its context is canceled, so the
	// drain lands mid-run however fast the campaign is.
	s2 := New(Options{QueueDepth: 4, Workers: 1, Runner: func(ctx context.Context, spec jobspec.Spec, opts jobspec.RunOptions) (*jobspec.Result, error) {
		<-ctx.Done()
		return jobspec.RunOpts(ctx, spec, opts)
	}})
	st2, err := s2.Submit(slowSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Shutdown(expiredContext()); err != context.Canceled {
		t.Fatalf("expired drain returned %v, want context.Canceled", err)
	}
	got2, err := s2.Job(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got2.State != StateCanceled {
		t.Fatalf("unarmed drain ended %s, want canceled", got2.State)
	}
}

// TestDaemonRestartResumesCheckpointedJob is the end-to-end crash drill:
// daemon 1 checkpoints a running campaign and drains; daemon 2 on the
// same persist dir resumes it mid-flight and must serve the digest an
// uninterrupted run produces, leaving no durable files behind.
func TestDaemonRestartResumesCheckpointedJob(t *testing.T) {
	spec := slowSpec(11)
	res, err := jobspec.Run(context.Background(), spec, obs.Nop())
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	s1 := New(Options{
		QueueDepth: 4, Workers: 1, Runner: parkRunner,
		PersistDir: dir, CheckpointEvery: time.Millisecond,
	})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the run make observable progress (a periodic checkpoint with a
	// nonzero simulated clock) before pulling the plug, so the resume
	// genuinely starts mid-campaign.
	deadline := time.Now().Add(10 * time.Second)
	for {
		got, err := s1.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State.Terminal() {
			t.Fatalf("job finished (%s) before the drain; slowSpec is not slow enough", got.State)
		}
		if got.CheckpointClockSec > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint observed in 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Shutdown(expiredContext()); err != context.Canceled {
		t.Fatalf("drain: %v", err)
	}
	got, err := s1.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCheckpointed {
		t.Fatalf("job ended %s after drain, want checkpointed", got.State)
	}

	// Daemon 2: the checkpoint comes back as a mid-flight resume.
	s2 := New(Options{
		QueueDepth: 4, Workers: 1,
		PersistDir: dir, CheckpointEvery: time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := s2.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("resumed job ended %s: %+v", final.State, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed job status does not carry Resumed")
	}
	if final.Digest != want {
		t.Errorf("resumed digest diverged from uninterrupted run:\n got %s\nwant %s", final.Digest, want)
	}
	shutdownOrFail(t, s2, 10*time.Second)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover durable file after resumed completion: %s", e.Name())
	}
}

// TestResumeQuarantinesCorruptCheckpoint: a torn or garbage .ckpt next
// to a valid spec costs only the resume shortcut — the checkpoint is set
// aside as .ckpt.bad and the spec re-runs from scratch to completion.
func TestResumeQuarantinesCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec(3)
	b, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-1.ckpt"), []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueDepth: 4, Workers: 1, PersistDir: dir, CheckpointEvery: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.WaitDone(ctx, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job with corrupt checkpoint ended %s: %+v", st.State, st.Error)
	}
	if st.Resumed {
		t.Error("job with quarantined checkpoint claims Resumed")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-1.ckpt.bad")); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	shutdownOrFail(t, s, 10*time.Second)
}

// TestHealthzReportsCheckpointing: /v1/healthz advertises whether
// checkpointing is armed and, while jobs run, the worst-case replay
// window.
func TestHealthzReportsCheckpointing(t *testing.T) {
	gate := make(chan struct{})
	s := New(Options{
		QueueDepth: 4, Workers: 1, Runner: gateRunner(nil, gate),
		PersistDir: t.TempDir(), CheckpointEvery: time.Second,
	})
	defer func() {
		close(gate)
		shutdownOrFail(t, s, 10*time.Second)
	}()
	if _, err := s.Submit(quickSpec(1)); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !h.Checkpointing {
			t.Fatal("healthz does not advertise checkpointing")
		}
		if h.OldestCheckpointAgeSec != nil {
			if *h.OldestCheckpointAgeSec < 0 {
				t.Fatalf("negative checkpoint age %v", *h.OldestCheckpointAgeSec)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported a checkpoint age while a job ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLoadSubmitRestartNoLossNoDup is the load drill from the issue:
// 2,000 concurrent HTTP submissions against a small queue must each get
// a definitive answer (202, 429+Retry-After, or 503 after drain starts —
// none here), memory must stay bounded, and after the daemon "crashes"
// mid-backlog every accepted job — and only those — must complete on the
// next daemon: zero lost, zero duplicated.
func TestLoadSubmitRestartNoLossNoDup(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped under -short")
	}
	dir := t.TempDir()
	gate := make(chan struct{})
	// Daemon 1 accepts but never finishes (gate never closes for it):
	// everything 202'd is durably queued or parked in flight — the
	// worst-case crash window.
	s1 := New(Options{QueueDepth: 64, Workers: 4, PersistDir: dir, Runner: gateRunner(nil, gate)})
	srv := httptest.NewServer(s1.Handler())

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	const clients = 2000
	var (
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			b, err := quickSpec(uint64(i)).Encode()
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
				ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
				if err != nil || ra < 1 {
					t.Errorf("429 without a usable Retry-After: %q", resp.Header.Get("Retry-After"))
				}
				mu.Lock()
				rejected++
				mu.Unlock()
			default:
				t.Errorf("unexpected submit status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	srv.Close()

	var after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 256<<20 {
		t.Errorf("heap grew %d MiB across the burst; backpressure is not bounding memory", grew>>20)
	}

	if got := len(accepted) + rejected; got != clients {
		t.Fatalf("%d accepted + %d rejected != %d submissions", len(accepted), rejected, clients)
	}
	if len(accepted) == 0 || rejected == 0 {
		t.Fatalf("burst did not exercise both outcomes: %d accepted, %d rejected", len(accepted), rejected)
	}
	seen := make(map[string]bool, len(accepted))
	for _, id := range accepted {
		if seen[id] {
			t.Fatalf("duplicate job ID handed out: %s", id)
		}
		seen[id] = true
	}
	t.Logf("burst: %d accepted, %d backpressured", len(accepted), rejected)

	// Crash stand-in: abandon daemon 1 with its backlog and bring up
	// daemon 2 on the same directory. Every accepted job must complete
	// there exactly once.
	s2 := New(Options{QueueDepth: 128, Workers: 8, PersistDir: dir, Runner: okRunner(t)})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, id := range accepted {
		st, err := s2.WaitDone(ctx, id)
		if err != nil {
			t.Fatalf("accepted job %s lost across restart: %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("resumed job %s ended %s: %+v", id, st.State, st.Error)
		}
	}
	if got := len(s2.Jobs()); got != len(accepted) {
		t.Errorf("daemon 2 holds %d jobs, want exactly the %d accepted (no duplication, no invention)", got, len(accepted))
	}
	shutdownOrFail(t, s2, 30*time.Second)
	close(gate)
	shutdownOrFail(t, s1, 30*time.Second)
}
