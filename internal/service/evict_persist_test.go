package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// TestEvictionServes410 drives the -max-results bound: with room for two
// finished results, finishing four evicts the two oldest; their IDs
// answer ErrGone (HTTP 410), never-seen IDs stay ErrNotFound (404), and
// the survivors remain fully readable.
func TestEvictionServes410(t *testing.T) {
	s := New(Options{QueueDepth: 8, Workers: 1, MaxResults: 2, Runner: okRunner(t)})
	defer shutdownOrFail(t, s, 10*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ids := make([]string, 4)
	for i := range ids {
		st, err := s.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
		// Finish each before submitting the next so eviction order is
		// exactly submission order.
		if _, err := s.WaitDone(ctx, st.ID); err != nil {
			t.Fatalf("wait %s: %v", st.ID, err)
		}
	}

	for _, id := range ids[:2] {
		if _, err := s.Job(id); !errors.Is(err, ErrGone) {
			t.Errorf("Job(%s) err = %v, want ErrGone", id, err)
		}
		if _, _, err := s.Outcome(id); !errors.Is(err, ErrGone) {
			t.Errorf("Outcome(%s) err = %v, want ErrGone", id, err)
		}
	}
	for _, id := range ids[2:] {
		st, err := s.Job(id)
		if err != nil {
			t.Errorf("Job(%s): %v", id, err)
		} else if st.State != StateDone {
			t.Errorf("job %s state %s, want done", id, st.State)
		}
	}
	if _, err := s.Job("job-999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown ID err = %v, want ErrNotFound", err)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("%d jobs listed after eviction, want 2", got)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for path, want := range map[string]int{
		"/v1/jobs/" + ids[0]:              410,
		"/v1/jobs/" + ids[0] + "/outcome": 410,
		"/v1/jobs/" + ids[3]:              200,
		"/v1/jobs/job-999":                404,
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s → %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// Without MaxResults every result is retained — the pre-eviction
// behavior is the default.
func TestNoEvictionByDefault(t *testing.T) {
	s := New(Options{QueueDepth: 8, Workers: 1, Runner: okRunner(t)})
	defer shutdownOrFail(t, s, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		st, err := s.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.WaitDone(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Jobs()); got != 3 {
		t.Errorf("%d jobs retained, want 3", got)
	}
}

// TestPersistResumeAfterRestart is the durable-intake contract: jobs
// accepted by a daemon that dies before finishing them are re-enqueued —
// same IDs, submission order — by the next daemon on the same
// -persist-dir, and their spec files disappear once they complete.
func TestPersistResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 8)
	// First daemon: accepts three jobs, runs none to completion (the
	// runner parks on the gate), then is abandoned — the crash stand-in.
	s1 := New(Options{QueueDepth: 8, Workers: 1, PersistDir: dir, Runner: gateRunner(started, gate)})
	ids := make([]string, 3)
	for i := range ids {
		st, err := s1.Submit(quickSpec(uint64(i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}
	<-started // one running, two queued; all three persisted
	for _, id := range ids {
		if _, err := os.Stat(filepath.Join(dir, id+".json")); err != nil {
			t.Fatalf("spec %s not persisted: %v", id, err)
		}
	}

	// Second daemon on the same directory: the backlog comes back.
	s2 := New(Options{QueueDepth: 8, Workers: 2, PersistDir: dir, Runner: okRunner(t)})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := s2.WaitDone(ctx, id)
		if err != nil {
			t.Fatalf("resumed job %s: %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("resumed job %s ended %s: %+v", id, st.State, st.Error)
		}
	}
	// Fresh submissions must not collide with resumed IDs.
	st, err := s2.Submit(quickSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st.ID == id {
			t.Fatalf("new submission reused resumed ID %s", id)
		}
	}
	if _, err := s2.WaitDone(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	shutdownOrFail(t, s2, 10*time.Second)

	// Terminal jobs leave no spec files behind (s2 finished everything).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover spec file after completion: %s", e.Name())
	}

	// Release the abandoned first daemon before the test exits.
	close(gate)
	shutdownOrFail(t, s1, 10*time.Second)
}

// Unparsable spec files are quarantined (.bad), not retried or fatal.
func TestResumeQuarantinesCorruptSpec(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-3.json"), []byte("not a spec"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Options{QueueDepth: 4, Workers: 1, PersistDir: dir, Runner: okRunner(t)})
	defer shutdownOrFail(t, s, 10*time.Second)
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("corrupt spec resumed as %d jobs", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-3.json.bad")); err != nil {
		t.Errorf("corrupt spec not quarantined: %v", err)
	}
	// The corrupt file's sequence number is still burned: new IDs start
	// after it, so a later manual fix of the .bad file cannot collide.
	st, err := s.Submit(quickSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-4" {
		t.Errorf("first ID after quarantined job-3 is %s, want job-4", st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.WaitDone(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRunsPersistedSnapshotJob: a snapshot-carrying spec survives
// the daemon's spec file — written with Spec.Encode, read back with
// jobspec.Decode — and the restarted daemon's run serves the digest the
// library path computes for the same spec.
func TestRestartRunsPersistedSnapshotJob(t *testing.T) {
	base := quickSpec(5)
	snap, err := snapshot.Build(base.Scenario, mc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := base.WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := jobspec.Run(context.Background(), spec, obs.Nop())
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	gate := make(chan struct{})
	started := make(chan string, 1)
	s1 := New(Options{QueueDepth: 4, Workers: 1, PersistDir: dir, Runner: gateRunner(started, gate)})
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	s2 := New(Options{QueueDepth: 4, Workers: 1, PersistDir: dir})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := s2.WaitDone(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("restarted snapshot job ended %s: %+v", final.State, final.Error)
	}
	if final.Digest != want {
		t.Errorf("restarted snapshot job digest diverged from the library path:\n got %s\nwant %s", final.Digest, want)
	}
	shutdownOrFail(t, s2, 10*time.Second)
	close(gate)
	shutdownOrFail(t, s1, 10*time.Second)
}
