package jobspec

import (
	"context"
	"errors"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
)

// tspSpec is a legit or fleet job under the tour-based PeriodicTSP
// scheduler, on a world whose batteries start low enough (12–50%) that
// the queue holds several requests when a tour is planned, so a stop
// mid-tour leaves part of it unserved.
func tspSpec(kind string) Spec {
	s := Default(42, 400)
	s.Scenario.Deploy.InitialFracMin, s.Scenario.Deploy.InitialFracMax = 0.12, 0.5
	s.Campaign.Scheduler = "PeriodicTSP"
	s.Kind = kind
	if kind == KindFleet {
		s.Chargers = 2
	}
	return s
}

// stopAndResume runs spec to barrier k, encodes the checkpoint it stops
// with, and resumes a copy of the spec from those bytes. It returns the
// resumed run's digest, or "" when the run ended before barrier k.
func stopAndResume(t *testing.T, spec Spec, k int) string {
	t.Helper()
	var (
		ckpt     []byte
		barriers int
	)
	_, err := RunOpts(context.Background(), spec, RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Every: 1 << 62, // only the Stop capture
		Sink: func(s *snapshot.Snapshot) (err error) {
			ckpt, err = s.Encode()
			return err
		},
		Stop: func() bool { barriers++; return barriers == k },
	}})
	if err == nil {
		return ""
	}
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("stop at barrier %d: err = %v, want ErrStopped", k, err)
	}
	spec.ResumeFrom = ckpt
	res, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatalf("resume from barrier %d: %v", k, err)
	}
	return res.mustDigest(t)
}

// TestResumePeriodicTSP holds a checkpointed PeriodicTSP run to the
// Outcome of the uninterrupted one. The scheduler remembers the rest of
// its tour between picks; a checkpoint that dropped it would resume by
// planning a fresh tour and serve the queue in another order.
func TestResumePeriodicTSP(t *testing.T) {
	for kind, stops := range map[string][]int{
		KindLegit: {38, 90, 160, 223},
		KindFleet: {60, 150, 300, 600},
	} {
		t.Run(kind, func(t *testing.T) {
			spec := tspSpec(kind)
			want := runDigest(t, spec)
			resumed := 0
			for _, k := range stops {
				got := stopAndResume(t, spec, k)
				if got == "" {
					continue
				}
				resumed++
				if got != want {
					t.Errorf("resumed from barrier %d: digest %s, want %s", k, got, want)
				}
			}
			if resumed == 0 {
				t.Fatal("every run ended before its stop; no resume exercised")
			}
		})
	}
}
