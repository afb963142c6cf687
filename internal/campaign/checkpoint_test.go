package campaign

// Checkpoint/resume fence: for every golden flavor, a run stopped at a
// pseudo-randomly chosen barrier, serialized to bytes, decoded, and
// resumed must reproduce the exact golden Outcome digest. The stop
// ordinal is derived deterministically from the case name so each flavor
// interrupts at a different, reproducible point. Plain `go test` fences a
// representative subset; the full 22-flavor sweep runs under
// WRSN_VERIFY_CHECKPOINT=1 (wired as `make verify-checkpoint`, with
// -race, in CI).

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// stopOrdinal maps a case name to a barrier ordinal in [1, 512]. The
// ordinal is pinned by the name (not by math/rand) so a failure replays
// identically; 512 keeps every flavor's stop inside its first simulated
// day while still spreading stops across loop, wait, and fleet barriers.
func stopOrdinal(name string) int {
	h := sha256.Sum256([]byte(name))
	return 1 + int(binary.BigEndian.Uint64(h[:8])%512)
}

// fenceCase interrupts gc at its pinned barrier and resumes from the
// serialized checkpoint; both the stopped run's capture and the resumed
// run must land on the golden digest `want`.
func fenceCase(t *testing.T, gc goldenCase, want string) {
	t.Helper()
	k := stopOrdinal(gc.name)
	var (
		barriers int
		captured *snapshot.Snapshot
	)
	plan := &CheckpointPlan{
		// Every: an hour of wall clock, so the periodic path captures
		// nothing and the single capture comes from Stop (which bypasses
		// the interval gate).
		Every: time.Hour,
		Sink: func(s *snapshot.Snapshot) error {
			captured = s
			return nil
		},
		Stop: func() bool {
			barriers++
			return barriers == k
		},
	}
	o, err := gc.runPlan(t, nil, plan)
	if err == nil {
		// The run finished before barrier k — short flavors can have
		// fewer than 512 barriers. The checkpointed (but never stopped)
		// run must still match its golden exactly.
		if barriers >= k {
			t.Fatalf("run completed but Stop fired (%d barriers, stop at %d)", barriers, k)
		}
		if captured != nil {
			t.Fatal("interval capture fired despite the hour-long gate")
		}
		if d := digestOf(t, o); d != want {
			t.Errorf("checkpoint-armed run drifted from golden:\n got %s\nwant %s", d, want)
		}
		t.Logf("run ended after %d barriers, before stop ordinal %d; resume not exercised", barriers, k)
		return
	}
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("stopped run: err = %v, want ErrStopped", err)
	}
	if o != nil {
		t.Fatalf("stopped run returned an outcome: %+v", o)
	}
	if captured == nil {
		t.Fatal("ErrStopped without a captured snapshot")
	}

	// Kill: only the serialized bytes survive.
	b, err := captured.Encode()
	if err != nil {
		t.Fatalf("encode checkpoint: %v", err)
	}
	snap, err := snapshot.Decode(b)
	if err != nil {
		t.Fatalf("decode checkpoint: %v", err)
	}
	if !snap.Live() {
		t.Fatal("decoded checkpoint is not live")
	}

	// Resume with a fresh config (and, for fault flavors, a fresh fault
	// plan from the same spec — exactly what a daemon restart does).
	cfg := gc.config(nil)
	var resumed any
	if gc.kind == kindFleet {
		resumed, err = ResumeFleet(context.Background(), snap, cfg)
	} else {
		resumed, err = Resume(context.Background(), snap, cfg)
	}
	if err != nil {
		t.Fatalf("resume after %d barriers: %v", k, err)
	}
	if d := digestOf(t, resumed); d != want {
		t.Errorf("resumed run diverged from uninterrupted golden (stopped at barrier %d):\n got %s\nwant %s", k, d, want)
	}
}

// TestCheckpointResumeGolden is the kill-and-resume fence. The subset
// covers every mechanism (legit loop, attacker phase machine, defense,
// fault loss stream, fleet); WRSN_VERIFY_CHECKPOINT=1 sweeps all flavors.
func TestCheckpointResumeGolden(t *testing.T) {
	want := loadGolden(t)
	full := os.Getenv("WRSN_VERIFY_CHECKPOINT") != ""
	subset := map[string]bool{
		"legit/seed42":           true,
		"csa/seed42":             true,
		"progressive/seed42":     true,
		"defense-witness/seed42": true,
		"faults-loss/seed42":     true,
		"fleet2/seed42":          true,
	}
	for _, gc := range goldenCases() {
		gc := gc
		if !full && !subset[gc.name] {
			continue
		}
		t.Run(gc.name, func(t *testing.T) {
			if full {
				t.Parallel()
			}
			exp, ok := want[gc.name]
			if !ok {
				t.Fatalf("no pinned digest for %q", gc.name)
			}
			fenceCase(t, gc, exp)
		})
	}
}

// TestCheckpointPeriodicCapture exercises the interval path: with a zero
// Every, every barrier captures, each snapshot is live and serializable,
// and the run's outcome stays on the golden digest — capture is pure
// reads.
func TestCheckpointPeriodicCapture(t *testing.T) {
	want := loadGolden(t)
	for _, name := range []string{"legit/seed42", "fleet2/seed42"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var gc goldenCase
			for _, c := range goldenCases() {
				if c.name == name {
					gc = c
				}
			}
			captures := 0
			plan := &CheckpointPlan{
				Sink: func(s *snapshot.Snapshot) error {
					captures++
					if !s.Live() {
						t.Fatal("captured snapshot not live")
					}
					return nil
				},
			}
			o, err := gc.runPlan(t, nil, plan)
			if err != nil {
				t.Fatal(err)
			}
			if captures == 0 {
				t.Fatal("no captures at Every=0")
			}
			if d := digestOf(t, o); d != want[name] {
				t.Errorf("per-barrier capture perturbed the run: %s != %s", d, want[name])
			}
			t.Logf("%d captures", captures)
		})
	}
}
