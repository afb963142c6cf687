package jobspec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// snapSpec returns a fast spec and the same spec carrying a snapshot of
// its own scenario.
func snapSpec(t *testing.T, kind string, seed uint64) (plain, withSnap Spec) {
	t.Helper()
	plain = Default(seed, 40)
	plain.Kind = kind
	plain.Campaign.HorizonSec = 86400
	if kind == KindFleet {
		plain.Chargers = 2
	}
	snap, err := snapshot.Build(plain.Scenario, mc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	withSnap, err = plain.WithSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	return plain, withSnap
}

// TestSnapshotSpecMatchesPlain is the jobspec half of the fork fence: a
// spec that carries a warm snapshot must produce the same result digest
// as the plain spec that rebuilds its scenario — including after the
// spec itself crosses Encode→Decode, which is how a daemon receives it.
func TestSnapshotSpecMatchesPlain(t *testing.T) {
	for _, kind := range []string{KindAttack, KindLegit, KindFleet} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			plain, withSnap := snapSpec(t, kind, 42)
			want := runDigest(t, plain)
			if got := runDigest(t, withSnap); got != want {
				t.Errorf("snapshot spec digest %s != plain %s", got, want)
			}
			b, err := withSnap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if got := runDigest(t, decoded); got != want {
				t.Errorf("decoded snapshot spec digest %s != plain %s", got, want)
			}
			// RunOn on a fork the caller made is the experiment sweeps'
			// in-process path; it must agree with Run too.
			snap, err := snapshot.Decode(withSnap.Snapshot)
			if err != nil {
				t.Fatal(err)
			}
			nw, ch, err := snap.ForkWorld()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOn(context.Background(), plain, nw, ch, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.mustDigest(t); got != want {
				t.Errorf("RunOn digest %s != Run %s", got, want)
			}
		})
	}
}

func runDigest(t *testing.T, spec Spec) string {
	t.Helper()
	res, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := res.Digest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// A snapshot-carrying spec needs no scenario of its own: the snapshot's
// embedded scenario is authoritative.
func TestSnapshotSpecValidatesWithoutScenario(t *testing.T) {
	_, withSnap := snapSpec(t, KindLegit, 7)
	withSnap.Scenario = trace.Scenario{}
	if err := withSnap.Validate(); err != nil {
		t.Fatalf("snapshot spec without scenario rejected: %v", err)
	}
	if _, err := Run(context.Background(), withSnap, nil); err != nil {
		t.Fatalf("snapshot spec without scenario failed to run: %v", err)
	}

	// A corrupt snapshot payload must fail validation, not run time.
	withSnap.Snapshot = []byte(`{"version":99}`)
	if err := withSnap.Validate(); err == nil {
		t.Error("corrupt snapshot payload validated")
	}
}

// A live checkpoint carried in Snapshot must be refused: forking it would
// start a fresh campaign on a mid-run world. The error points at
// resume_from, where a checkpoint resumes the run it came from.
func TestSnapshotRejectsLiveCheckpoint(t *testing.T) {
	spec, _ := snapSpec(t, KindLegit, 9)
	var (
		ckpt     []byte
		barriers int
	)
	_, err := RunOpts(context.Background(), spec, RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Sink: func(s *snapshot.Snapshot) (err error) {
			ckpt, err = s.Encode()
			return err
		},
		Stop: func() bool { barriers++; return barriers == 5 },
	}})
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}

	carried := spec
	carried.Snapshot = ckpt
	if err := carried.Validate(); err == nil || !strings.Contains(err.Error(), "resume_from") {
		t.Errorf("live checkpoint in snapshot: Validate err = %v, want one naming resume_from", err)
	}
	if _, err := Run(context.Background(), carried, nil); err == nil {
		t.Error("live checkpoint in snapshot ran")
	}

	resumed := spec
	resumed.ResumeFrom = ckpt
	if err := resumed.Validate(); err != nil {
		t.Errorf("live checkpoint in resume_from rejected: %v", err)
	}
	// A checkpoint resumes on its own world, so RunOn, which runs on the
	// caller's, refuses it.
	nw, _, err := spec.Scenario.Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	if _, err := RunOn(context.Background(), resumed, nw, ch, RunOptions{}); err == nil || !strings.Contains(err.Error(), "resume") {
		t.Errorf("RunOn with resume_from: err = %v, want a refusal", err)
	}
}
