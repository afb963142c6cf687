package jobspec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// checkpointAt runs spec to barrier k and returns the live checkpoint it
// stops with, decoded.
func checkpointAt(t *testing.T, spec Spec, k int) *snapshot.Snapshot {
	t.Helper()
	var (
		ckpt     *snapshot.Snapshot
		barriers int
	)
	_, err := RunOpts(context.Background(), spec, RunOptions{Checkpoint: &campaign.CheckpointPlan{
		Every: 1 << 62, // only the Stop capture
		Sink:  func(s *snapshot.Snapshot) error { ckpt = s; return nil },
		Stop:  func() bool { barriers++; return barriers == k },
	}})
	if !errors.Is(err, campaign.ErrStopped) {
		t.Fatalf("stop at barrier %d: err = %v, want ErrStopped", k, err)
	}
	return ckpt
}

// reencode returns s's bytes with edit applied to the campaign state of
// a decoded copy, leaving s alone.
func reencode(t *testing.T, s *snapshot.Snapshot, edit func(*snapshot.CampaignState)) []byte {
	t.Helper()
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	c, err := snapshot.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	edit(c.Campaign())
	if b, err = c.Encode(); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeRejectsOutOfRangeNode resumes attack checkpoints whose
// policy state, key list or request queue names a node the checkpoint's
// network does not have. A resume_from spec is outside input, and the
// campaign layers index the network by node ID, so each must end in an
// error at the restore boundary, never a panic mid-run.
func TestResumeRejectsOutOfRangeNode(t *testing.T) {
	spec := Default(42, 120)
	spec.Kind = KindAttack
	snap := checkpointAt(t, spec, 20)
	n := wrsn.NodeID(snap.NodeCount())
	if cs := snap.Campaign(); cs.Policy == nil || cs.Policy.Instance == nil || len(cs.Policy.Pending) == 0 {
		t.Fatal("checkpoint carries no attack plan to corrupt")
	}
	cases := map[string]func(cs *snapshot.CampaignState){
		"targets":       func(cs *snapshot.CampaignState) { cs.Policy.Targets = append(cs.Policy.Targets, n) },
		"blocked":       func(cs *snapshot.CampaignState) { cs.Policy.Blocked = append(cs.Policy.Blocked, -1) },
		"engaged":       func(cs *snapshot.CampaignState) { cs.Policy.Engaged = append(cs.Policy.Engaged, n+7) },
		"pending site":  func(cs *snapshot.CampaignState) { cs.Policy.Pending[0].Node = n },
		"instance site": func(cs *snapshot.CampaignState) { cs.Policy.Instance.Sites[0].Node = -3 },
		"plan stop": func(cs *snapshot.CampaignState) {
			cs.Policy.Result.Plan.Schedule = append(cs.Policy.Result.Plan.Schedule, attack.Stop{Site: len(cs.Policy.Instance.Sites)})
		},
		"key node": func(cs *snapshot.CampaignState) { cs.Keys = append(cs.Keys, wrsn.KeyNode{ID: n}) },
		"request": func(cs *snapshot.CampaignState) {
			cs.World.Requests = append(cs.World.Requests, charging.Request{Node: n, Deadline: math.Inf(1)})
		},
	}
	for name, edit := range cases {
		t.Run(name, func(t *testing.T) {
			bad := spec
			bad.ResumeFrom = reencode(t, snap, edit)
			res, err := Run(context.Background(), bad, nil)
			if err == nil {
				t.Fatalf("resume succeeded: %+v", res.Outcome)
			}
		})
	}
}

// faultArg matches the plan-index argument of a pending fault event in
// a snapshot's canonical bytes.
var faultArg = regexp.MustCompile(`"Arg":-?[0-9]+,"Kind":"` + faults.EventKind + `"`)

// TestResumeIgnoresOutOfRangeFaultEvent resumes a checkpoint whose
// pending fault events point past the fault plan. A checkpoint carries a
// fault event as an index into the plan, which the resume rebuilds from
// the spec at the checkpoint's node count, so the index is the only part
// of the event a corrupt checkpoint can move out of range; such an event
// fires as a no-op and the run completes.
func TestResumeIgnoresOutOfRangeFaultEvent(t *testing.T) {
	spec := Default(42, 120)
	spec.Faults = &faults.Spec{Seed: 42, HorizonSec: 14 * 24 * 3600, NodeFailures: 6}
	snap := checkpointAt(t, spec, 5)
	b, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(faultArg.FindAll(b, -1)) == 0 {
		t.Fatal("checkpoint has no pending fault event")
	}
	for _, arg := range []int{1 << 20, -1} {
		moved := faultArg.ReplaceAll(b, fmt.Appendf(nil, `"Arg":%d,"Kind":"%s"`, arg, faults.EventKind))
		bad := spec
		bad.ResumeFrom = moved
		if _, err := Run(context.Background(), bad, nil); err != nil {
			t.Errorf("arg %d: resume failed: %v", arg, err)
		}
	}
}

// TestResumeRejectsInvalidWorldState resumes checkpoints whose world
// state holds a value no run reaches: a NaN or infinite clock, cursor,
// fault-window time, cooldown, backoff or request figure, a cooldown
// table longer than the network, or retransmission tables that disagree
// with the fault plan. The snapshot codec decodes "NaN" and "±Inf", and
// without the check such a run completes and reports the value (a NaN
// ChDownTotal ends as a NaN ChargerDownSec in the fault report), so each
// must fail at the restore boundary with an error naming the field.
func TestResumeRejectsInvalidWorldState(t *testing.T) {
	faulted := Default(42, 120)
	faulted.Faults = &faults.Spec{Seed: 7, HorizonSec: 14 * 24 * 3600, ChargerBreakdowns: 2, SinkOutages: 1, RequestLossProb: 0.2}
	plain := Default(42, 120)
	snaps := map[*Spec]*snapshot.Snapshot{&faulted: checkpointAt(t, faulted, 50), &plain: checkpointAt(t, plain, 50)}
	nan := math.NaN()
	cases := []struct {
		name  string
		spec  *Spec
		field string
		edit  func(w *world.State)
	}{
		{"ChDownTotal NaN", &faulted, "ChDownTotal", func(w *world.State) { w.ChDownTotal = nan }},
		{"NextAudit NaN", &faulted, "NextAudit", func(w *world.State) { w.NextAudit = nan }},
		{"NextSample NaN", &plain, "NextSample", func(w *world.State) { w.NextSample = nan }},
		{"StepTarget +Inf", &plain, "StepTarget", func(w *world.State) { w.StepTarget = math.Inf(1) }},
		{"SinkSince -Inf", &faulted, "SinkSince", func(w *world.State) { w.SinkSince = math.Inf(-1) }},
		{"Cool NaN", &plain, "Cool", func(w *world.State) { w.Cool[3] = nan }},
		{"Cool too long", &plain, "Cool", func(w *world.State) { w.Cool = append(w.Cool, 0) }},
		{"RetxNext +Inf", &faulted, "RetxNext", func(w *world.State) { w.RetxNext[5] = math.Inf(1) }},
		{"Retx short", &faulted, "RetxAttempt", func(w *world.State) { w.RetxAttempt = w.RetxAttempt[:7] }},
		{"Retx without plan", &plain, "RetxAttempt", func(w *world.State) { w.RetxAttempt = make([]int, len(w.Cool)) }},
		{"request NeedJ NaN", &plain, "Requests", func(w *world.State) {
			w.Requests = append(w.Requests, charging.Request{Node: 0, IssuedAt: w.Now, Deadline: math.Inf(1), NeedJ: nan})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *c.spec
			bad.ResumeFrom = reencode(t, snaps[c.spec], func(cs *snapshot.CampaignState) { c.edit(&cs.World) })
			_, err := Run(context.Background(), bad, nil)
			if err == nil {
				t.Fatal("resume succeeded")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
		})
	}
	// The unedited checkpoints resume.
	for spec, snap := range snaps {
		ok := *spec
		ok.ResumeFrom = reencode(t, snap, func(*snapshot.CampaignState) {})
		if _, err := Run(context.Background(), ok, nil); err != nil {
			t.Errorf("unedited checkpoint: %v", err)
		}
	}
}

// TestResumeRejectsInvalidLedgerOrPrev resumes live checkpoints edited in
// one restored field: a NaN or infinite float of the ledger, nested
// records included, a negative ledger count, or a drive-loop Prev that
// is neither OK nor Stopped. Without the checks each resumes without
// error and reports the value (a NaN WaitSum ends as a NaN MeanWaitSec,
// Served −5 as five served requests fewer) or branches on a Prev no run
// produces, so each must fail at the restore boundary with an error
// naming the field. The unedited checkpoints, whose FirstDeath is the
// legitimate +Inf of a run with no death yet, still resume.
func TestResumeRejectsInvalidLedgerOrPrev(t *testing.T) {
	legit := Default(42, 120)
	fleet := Default(42, 120)
	fleet.Kind, fleet.Chargers = KindFleet, 2
	snaps := map[*Spec]*snapshot.Snapshot{&legit: checkpointAt(t, legit, 300), &fleet: checkpointAt(t, fleet, 50)}
	if fd := snaps[&legit].Campaign().Ledger.FirstDeath; !math.IsInf(fd, 1) {
		t.Fatalf("legit checkpoint FirstDeath = %v, want +Inf so the exemption is exercised", fd)
	}
	nan := math.NaN()
	cases := []struct {
		name  string
		spec  *Spec
		field string
		edit  func(cs *snapshot.CampaignState)
	}{
		{"WaitSum NaN", &legit, "WaitSum", func(cs *snapshot.CampaignState) { cs.Ledger.WaitSum = nan }},
		{"FirstDeath NaN", &legit, "FirstDeath", func(cs *snapshot.CampaignState) { cs.Ledger.FirstDeath = nan }},
		{"FirstDeath -Inf", &legit, "FirstDeath", func(cs *snapshot.CampaignState) { cs.Ledger.FirstDeath = math.Inf(-1) }},
		{"CaughtAt +Inf", &legit, "CaughtAt", func(cs *snapshot.CampaignState) { cs.Ledger.CaughtAt = math.Inf(1) }},
		{"Served negative", &legit, "Served", func(cs *snapshot.CampaignState) { cs.Ledger.Served = -5 }},
		{"session DeliveredJ NaN", &legit, "Sessions[0].DeliveredJ", func(cs *snapshot.CampaignState) { cs.Ledger.Sessions[0].DeliveredJ = nan }},
		{"Prev 7", &legit, "Prev", func(cs *snapshot.CampaignState) { cs.Policy.Prev = 7 }},
		{"fleet Issued negative", &fleet, "Issued", func(cs *snapshot.CampaignState) { cs.Ledger.Issued = -1 }},
		{"fleet SinkDownSec -Inf", &fleet, "Faults.SinkDownSec", func(cs *snapshot.CampaignState) { cs.Ledger.Faults.SinkDownSec = math.Inf(-1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *c.spec
			bad.ResumeFrom = reencode(t, snaps[c.spec], c.edit)
			_, err := Run(context.Background(), bad, nil)
			if err == nil {
				t.Fatal("resume succeeded")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
		})
	}
	for spec, snap := range snaps {
		ok := *spec
		ok.ResumeFrom = reencode(t, snap, func(*snapshot.CampaignState) {})
		if _, err := Run(context.Background(), ok, nil); err != nil {
			t.Errorf("unedited %s checkpoint: %v", spec.Kind, err)
		}
	}
}

// TestResumeRejectsInvalidPolicyState resumes live checkpoints edited in
// one field of the policy state to a value no run reaches. Without the
// checks a negative Idx panics indexing the window-unaware attacker's
// schedule, a Phase outside the attacker's six ends the run at once (the
// resumed CSA run serves no request), a NaN pending duration spins the
// world step forever, as does a plan stop beginning at +Inf, a NaN site
// duration in the plan changes what the window-unaware attacker serves,
// a non-finite wait target is chased by the resumed advance, and a
// target list out of strictly ascending order defeats the attacker's
// binary searches. Each must fail at the restore boundary
// with an error naming the field; the unedited checkpoints resume.
func TestResumeRejectsInvalidPolicyState(t *testing.T) {
	random := Default(42, 120)
	random.Kind, random.Campaign.Solver = KindAttack, campaign.SolverRandom
	csa := Default(42, 120)
	csa.Kind = KindAttack
	legit := Default(42, 120)
	snaps := map[*Spec]*snapshot.Snapshot{&random: checkpointAt(t, random, 2), &csa: checkpointAt(t, csa, 20), &legit: checkpointAt(t, legit, 50)}
	if p := snaps[&random].Campaign().Policy; p.Idx != 1 {
		t.Fatalf("random checkpoint Idx = %d, want 1 so the schedule is being executed", p.Idx)
	}
	if p := snaps[&csa].Campaign().Policy; len(p.Pending) == 0 || len(p.Targets) < 2 || len(p.Blocked) < 2 || len(p.Engaged) < 2 {
		t.Fatalf("CSA checkpoint has %d pending sites and target lists %v/%v/%v, want some to edit", len(p.Pending), p.Targets, p.Blocked, p.Engaged)
	}
	if p := snaps[&legit].Campaign().Policy; p.Stage != policy.StageWait {
		t.Fatalf("legit checkpoint stage = %q, want a wait barrier", p.Stage)
	}
	nan := math.NaN()
	cases := []struct {
		name  string
		spec  *Spec
		field string
		edit  func(p *policy.State)
	}{
		{"Idx -1", &random, "Idx", func(p *policy.State) { p.Idx = -1 }},
		{"Phase 99", &csa, "Phase", func(p *policy.State) { p.Phase = 99 }},
		{"Pending Dur NaN", &csa, "Pending[0].Dur", func(p *policy.State) { p.Pending[0].Dur = nan }},
		{"Pending Pos +Inf", &csa, "Pending[0].Pos", func(p *policy.State) { p.Pending[0].Pos.Y = math.Inf(1) }},
		{"site Dur NaN", &random, "Instance.Sites[0].Dur", func(p *policy.State) { p.Instance.Sites[0].Dur = nan }},
		{"stop Begin +Inf", &random, "Result.Plan.Schedule[1].Begin", func(p *policy.State) { p.Result.Plan.Schedule[1].Begin = math.Inf(1) }},
		{"Targets descending", &csa, "Targets", func(p *policy.State) { slices.Reverse(p.Targets) }},
		{"Blocked repeated", &csa, "Blocked", func(p *policy.State) { p.Blocked = append(p.Blocked, p.Blocked[len(p.Blocked)-1]) }},
		{"Engaged descending", &csa, "Engaged", func(p *policy.State) { slices.Reverse(p.Engaged) }},
		{"WaitUntil NaN", &legit, "WaitUntil", func(p *policy.State) { p.WaitUntil = nan }},
		{"WaitUntil +Inf", &legit, "WaitUntil", func(p *policy.State) { p.WaitUntil = math.Inf(1) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := *c.spec
			bad.ResumeFrom = reencode(t, snaps[c.spec], func(cs *snapshot.CampaignState) { c.edit(cs.Policy) })
			_, err := Run(context.Background(), bad, nil)
			if err == nil {
				t.Fatal("resume succeeded")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
		})
	}
	for spec, snap := range snaps {
		ok := *spec
		ok.ResumeFrom = reencode(t, snap, func(*snapshot.CampaignState) {})
		if _, err := Run(context.Background(), ok, nil); err != nil {
			t.Errorf("unedited %s/%s checkpoint: %v", spec.Kind, spec.Campaign.Solver, err)
		}
	}
}

// TestResumeRejectsInvalidFleetState resumes a 2-charger fleet
// checkpoint, taken while charger 0 serves node 49, edited in one field
// of the fleet state to a value no run reaches. Without the checks each
// resumes without error: a NaN or negative Busy ends as that BusyFrac, a
// NaN Rate or an infinite Dur changes what the session delivers and
// spends, a NaN Start or MeterBefore is metered into the session record,
// a Phase outside the three leaves the charger in no state at all, and a
// Reserved node out of range, repeated or beyond one per charger is
// carried along. Each must fail at the restore boundary with an error
// naming the field; the unedited checkpoint resumes.
func TestResumeRejectsInvalidFleetState(t *testing.T) {
	spec := Default(42, 120)
	spec.Kind, spec.Chargers = KindFleet, 2
	snap := checkpointAt(t, spec, 1450)
	if fs := snap.Campaign().Fleet; fs.Chargers[0].Phase != snapshot.FleetServing || !slices.Equal(fs.Reserved, []wrsn.NodeID{49}) {
		t.Fatalf("checkpoint has charger 0 in phase %d and Reserved %v, want serving with node 49 reserved", fs.Chargers[0].Phase, fs.Reserved)
	}
	nan := math.NaN()
	cases := []struct {
		name  string
		field string
		edit  func(fs *snapshot.FleetState)
	}{
		{"Busy NaN", "Busy", func(fs *snapshot.FleetState) { fs.Busy = nan }},
		{"Busy negative", "Busy", func(fs *snapshot.FleetState) { fs.Busy = -1e9 }},
		{"Rate NaN", "Chargers[0].Rate", func(fs *snapshot.FleetState) { fs.Chargers[0].Rate = nan }},
		{"Dur +Inf", "Chargers[0].Dur", func(fs *snapshot.FleetState) { fs.Chargers[0].Dur = math.Inf(1) }},
		{"Start NaN", "Chargers[0].Start", func(fs *snapshot.FleetState) { fs.Chargers[0].Start = nan }},
		{"MeterBefore NaN", "Chargers[0].MeterBefore", func(fs *snapshot.FleetState) { fs.Chargers[0].MeterBefore = nan }},
		{"Phase 9", "Chargers[0].Phase", func(fs *snapshot.FleetState) { fs.Chargers[0].Phase = 9 }},
		{"Reserved out of range", "Reserved", func(fs *snapshot.FleetState) { fs.Reserved = append(fs.Reserved, 99999) }},
		{"Reserved negative", "Reserved", func(fs *snapshot.FleetState) { fs.Reserved = append([]wrsn.NodeID{-3}, fs.Reserved...) }},
		{"Reserved repeated", "Reserved", func(fs *snapshot.FleetState) { fs.Reserved = append(fs.Reserved, fs.Reserved[0]) }},
		{"Reserved beyond the fleet", "Reserved", func(fs *snapshot.FleetState) { fs.Reserved = append(fs.Reserved, 50, 51) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := spec
			bad.ResumeFrom = reencode(t, snap, func(cs *snapshot.CampaignState) { c.edit(cs.Fleet) })
			_, err := Run(context.Background(), bad, nil)
			if err == nil {
				t.Fatal("resume succeeded")
			}
			if !strings.Contains(err.Error(), c.field) {
				t.Fatalf("error %q does not name %s", err, c.field)
			}
		})
	}
	ok := spec
	ok.ResumeFrom = reencode(t, snap, func(*snapshot.CampaignState) {})
	if _, err := Run(context.Background(), ok, nil); err != nil {
		t.Errorf("unedited fleet checkpoint: %v", err)
	}
}
