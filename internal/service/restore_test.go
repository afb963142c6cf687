package service

import (
	"context"
	"errors"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// TestOutOfRangeCheckpointFailsJobNotDaemon submits a resume_from spec
// whose attack checkpoint names a node past the network's last ID. The
// job must fail with the campaign's structured error (not a recovered
// panic), and the daemon must go on to run the next job.
func TestOutOfRangeCheckpointFailsJobNotDaemon(t *testing.T) {
	spec := jobspec.Default(42, 120)
	spec.Kind = jobspec.KindAttack
	var ckpt *snapshot.Snapshot
	barriers := 0
	_, err := jobspec.RunOpts(context.Background(), spec, jobspec.RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Every: 1 << 62,
		Sink:  func(s *snapshot.Snapshot) error { ckpt = s; return nil },
		Stop:  func() bool { barriers++; return barriers == 20 },
	}})
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("checkpoint run: %v", err)
	}
	b, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	pol := bad.Campaign().Policy
	pol.Targets = append(pol.Targets, wrsn.NodeID(bad.NodeCount()))
	if spec.ResumeFrom, err = bad.Encode(); err != nil {
		t.Fatal(err)
	}

	s := New(Options{QueueDepth: 2, Workers: 1})
	defer shutdownOrFail(t, s, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, sp := range []jobspec.Spec{spec, quickSpec(3)} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.WaitDone(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 0 && (got.State != StateFailed || got.Error == nil || got.Error.Kind != "campaign"):
			t.Fatalf("corrupt checkpoint job = %s / %+v, want failed/campaign", got.State, got.Error)
		case i == 1 && got.State != StateDone:
			t.Fatalf("job after the corrupt one = %s / %+v, want done", got.State, got.Error)
		}
	}
}

// spentJ matches a charger state's SpentJ field in canonical JSON.
var spentJ = regexp.MustCompile(`"SpentJ":[^,}]+`)

// TestNaNChargerSnapshotFailsJobNotDaemon submits a barrier snapshot and
// a live checkpoint whose charger has spent "NaN" joules, which the
// snapshot codec decodes. Each job must fail with the campaign's
// structured error when the charger is restored, instead of running on
// and reporting NaN energy, and the daemon must go on to run the next
// job.
func TestNaNChargerSnapshotFailsJobNotDaemon(t *testing.T) {
	spec := jobspec.Default(42, 60)
	spec.Kind = jobspec.KindAttack
	var ckpt *snapshot.Snapshot
	_, err := jobspec.RunOpts(context.Background(), spec, jobspec.RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Every: 1 << 62,
		Sink:  func(s *snapshot.Snapshot) error { ckpt = s; return nil },
		Stop:  func() bool { return true },
	}})
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("checkpoint run: %v", err)
	}
	barrier, err := snapshot.Build(spec.Scenario, mc.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	nanSpent := func(s *snapshot.Snapshot) []byte {
		b, err := s.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out := spentJ.ReplaceAll(b, []byte(`"SpentJ":"NaN"`))
		if n := strings.Count(string(out), `"SpentJ":"NaN"`); n != 1 {
			t.Fatalf("edited %d SpentJ fields, want the charger's one", n)
		}
		return out
	}
	fromSnap, fromCkpt := spec, spec
	fromSnap.Snapshot = nanSpent(barrier)
	fromCkpt.ResumeFrom = nanSpent(ckpt)

	s := New(Options{QueueDepth: 3, Workers: 1})
	defer shutdownOrFail(t, s, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, sp := range []jobspec.Spec{fromSnap, fromCkpt, quickSpec(3)} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.WaitDone(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i < 2 && (got.State != StateFailed || got.Error == nil || got.Error.Kind != "campaign" ||
			!strings.Contains(got.Error.Message, "SpentJ")):
			t.Fatalf("job %d with a NaN-SpentJ charger = %s / %+v, want failed/campaign naming SpentJ", i, got.State, got.Error)
		case i == 2 && got.State != StateDone:
			t.Fatalf("job after the corrupt ones = %s / %+v, want done", got.State, got.Error)
		}
	}
}

// TestNaNWorldCheckpointFailsJobNotDaemon submits a faulted live
// checkpoint whose world has accumulated "NaN" seconds of charger
// downtime, which the snapshot codec decodes. The job must fail with the
// campaign's structured error naming the field when the world is
// restored, instead of running on and reporting a NaN ChargerDownSec,
// and the daemon must go on to run the next job.
func TestNaNWorldCheckpointFailsJobNotDaemon(t *testing.T) {
	spec := jobspec.Default(42, 120)
	spec.Faults = &faults.Spec{Seed: 7, HorizonSec: 14 * 24 * 3600, ChargerBreakdowns: 2}
	editedCheckpointFailsJobNotDaemon(t, spec, "ChDownTotal", func(cs *snapshot.CampaignState) { cs.World.ChDownTotal = math.NaN() })
}

// TestNaNLedgerCheckpointFailsJobNotDaemon submits a live checkpoint
// whose ledger holds a "NaN" queueing-delay sum. The job must fail when
// the ledger is restored, naming WaitSum, instead of reporting a NaN
// mean wait, and the daemon must go on to run the next job.
func TestNaNLedgerCheckpointFailsJobNotDaemon(t *testing.T) {
	editedCheckpointFailsJobNotDaemon(t, jobspec.Default(42, 120), "WaitSum", func(cs *snapshot.CampaignState) { cs.Ledger.WaitSum = math.NaN() })
}

// TestNaNPolicyCheckpointFailsJobNotDaemon submits an attack checkpoint
// whose first pending target has a "NaN" session length. The job must
// fail when the policy is restored, naming Pending[0].Dur, instead of
// spinning the world step on a NaN target, and the daemon must go on to
// run the next job.
func TestNaNPolicyCheckpointFailsJobNotDaemon(t *testing.T) {
	spec := jobspec.Default(42, 120)
	spec.Kind = jobspec.KindAttack
	editedCheckpointFailsJobNotDaemon(t, spec, "Pending[0].Dur", func(cs *snapshot.CampaignState) { cs.Policy.Pending[0].Dur = math.NaN() })
}

// TestNaNFleetCheckpointFailsJobNotDaemon submits a 2-charger fleet
// checkpoint whose busy-time sum is "NaN". The job must fail when the
// fleet state is restored, naming Busy, instead of reporting a NaN
// BusyFrac, and the daemon must go on to run the next job.
func TestNaNFleetCheckpointFailsJobNotDaemon(t *testing.T) {
	spec := jobspec.Default(42, 120)
	spec.Kind, spec.Chargers = jobspec.KindFleet, 2
	editedCheckpointFailsJobNotDaemon(t, spec, "Busy", func(cs *snapshot.CampaignState) { cs.Fleet.Busy = math.NaN() })
}

// editedCheckpointFailsJobNotDaemon stops spec at its 50th barrier,
// applies edit to the checkpoint's campaign state and submits it as
// resume_from, then a quick job. The first must fail with kind
// "campaign" and a message naming field; the second must complete.
func editedCheckpointFailsJobNotDaemon(t *testing.T, spec jobspec.Spec, field string, edit func(*snapshot.CampaignState)) {
	t.Helper()
	var ckpt *snapshot.Snapshot
	barriers := 0
	_, err := jobspec.RunOpts(context.Background(), spec, jobspec.RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Every: 1 << 62,
		Sink:  func(s *snapshot.Snapshot) error { ckpt = s; return nil },
		Stop:  func() bool { barriers++; return barriers == 50 },
	}})
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("checkpoint run: %v", err)
	}
	b, err := ckpt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	bad, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	edit(bad.Campaign())
	if spec.ResumeFrom, err = bad.Encode(); err != nil {
		t.Fatal(err)
	}

	s := New(Options{QueueDepth: 2, Workers: 1})
	defer shutdownOrFail(t, s, 10*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i, sp := range []jobspec.Spec{spec, quickSpec(3)} {
		st, err := s.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.WaitDone(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case i == 0 && (got.State != StateFailed || got.Error == nil || got.Error.Kind != "campaign" ||
			!strings.Contains(got.Error.Message, field)):
			t.Fatalf("job with an edited %s = %s / %+v, want failed/campaign naming %s", field, got.State, got.Error, field)
		case i == 1 && got.State != StateDone:
			t.Fatalf("job after the corrupt one = %s / %+v, want done", got.State, got.Error)
		}
	}
}
