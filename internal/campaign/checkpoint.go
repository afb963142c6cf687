package campaign

// Live checkpoint/resume. A CheckpointPlan on the Config arms barrier
// hooks in the drive loop (single-charger) or after every engine event
// (fleet): each firing captures a live snapshot — network, charger,
// engine clock and keyed pending events, ledger, world, policy phase
// machine, RNG position — and hands it to the plan's Sink. Capture is
// pure reads, so a checkpointed run produces a byte-identical Outcome to
// an unhooked one; Resume/ResumeFleet rebuild the run from the snapshot
// and continue to the same Outcome the uninterrupted run would have
// produced. The golden checkpoint fence pins this for every flavor.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/campaign/session"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// ErrStopped is returned by a run whose CheckpointPlan.Stop fired: the
// final checkpoint was captured and sunk, and the run exited at the
// barrier instead of completing. The daemon's drain path uses it to park
// in-flight jobs resumably.
var ErrStopped = errors.New("campaign: run stopped at checkpoint")

// CheckpointPlan arms live checkpointing on a run.
type CheckpointPlan struct {
	// Scenario is recorded into each snapshot as provenance (resume
	// rebuilds nothing from it, but sweep tooling keys on it).
	Scenario trace.Scenario
	// Every is the minimum wall-clock interval between captures;
	// non-positive captures at every barrier. The gate is wall-clock, not
	// sim-clock: checkpoint cost should track real time at risk.
	Every time.Duration
	// Sink receives each captured snapshot. A non-nil error aborts the
	// run with that error. Required.
	Sink func(*snapshot.Snapshot) error
	// Stop, when non-nil and returning true at a barrier, forces a final
	// capture (bypassing Every) and ends the run with ErrStopped.
	Stop func() bool
}

// worldParams maps the run config onto the world layer (shared by the
// fresh-run and resume constructors so they can never drift apart).
func worldParams(cfg Config) world.Params {
	return world.Params{
		PollSec:          cfg.PollSec,
		RequestFrac:      cfg.RequestFrac,
		SampleEverySec:   cfg.SampleEverySec,
		AuditEverySec:    cfg.AuditEverySec,
		MinAuditSessions: cfg.MinAuditSessions,
		PendingGraceSec:  cfg.PendingGraceSec,
		Detectors:        cfg.Detectors,
		Faults:           cfg.Faults,
	}
}

// checkpointer drives single-charger captures at policy barriers.
type checkpointer struct {
	plan *CheckpointPlan
	nw   *wrsn.Network
	ch   *mc.Charger
	w    *world.W
	led  *ledger.L
	env  *policy.Env
	pol  policy.Policy
	keys []wrsn.KeyNode
	r    *rng.Stream
	last time.Time
}

// barrier is the Env.Checkpoint hook.
func (c *checkpointer) barrier(b policy.Barrier) error {
	stop := c.plan.Stop != nil && c.plan.Stop()
	if !stop && c.plan.Every > 0 && time.Since(c.last) < c.plan.Every {
		return nil
	}
	ps, err := policy.CaptureState(c.pol, c.env, b)
	if err != nil {
		return err
	}
	cs := &snapshot.CampaignState{
		World:  c.w.State(),
		Ledger: ledger.StateOf(c.led),
		Rand:   c.r.State(),
		Keys:   append([]wrsn.KeyNode(nil), c.keys...),
		Policy: ps,
	}
	snap, err := snapshot.CaptureLive(c.plan.Scenario, c.nw, c.ch, c.w.Engine(), cs)
	if err != nil {
		return err
	}
	if err := c.plan.Sink(snap); err != nil {
		return err
	}
	c.last = time.Now()
	if stop {
		return ErrStopped
	}
	return nil
}

// Resume continues a single-charger campaign from a live checkpoint. The
// cfg must carry the same run parameters as the original (a jobspec
// regenerates them from the spec); in particular cfg.Faults must be a
// fresh plan built from the same faults.Spec — New is pure, so the event
// list is identical, and the snapshot's loss-stream cursor repositions
// the only incrementally consumed stream. The resumed run executes the
// exact event and draw sequence the uninterrupted run would have, so its
// Outcome digest matches byte-for-byte.
func Resume(ctx context.Context, snap *snapshot.Snapshot, cfg Config) (*Outcome, error) {
	if snap == nil || !snap.Live() {
		return nil, errors.New("campaign: Resume needs a live snapshot")
	}
	cs := snap.Campaign()
	if cs.Fleet != nil {
		return nil, fmt.Errorf("campaign: snapshot holds a fleet run; use ResumeFleet")
	}
	if cs.Policy == nil {
		return nil, fmt.Errorf("campaign: snapshot lacks policy state")
	}
	cfg.applyDefaults()
	nw, ch, _, err := snap.Fork()
	if err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("campaign: single-charger checkpoint has no charger")
	}
	led := ledger.FromState(cs.Ledger)
	w, err := world.Resume(ctx, nw, led, worldParams(cfg), cfg.Probe, cs.World)
	if err != nil {
		return nil, err
	}
	if err := w.Engine().RestorePending(snap.PendingEvents()); err != nil {
		return nil, err
	}
	r := rng.FromState(cs.Rand)
	a := session.NewActor(w, ch, led, r, session.Params{
		Band:           cfg.Band,
		BenignFailRate: cfg.BenignFailRate,
		SingleEmitter:  cfg.SingleEmitter,
		CooldownSec:    cfg.CooldownSec,
		Defense:        cfg.Defense,
	}, cfg.Probe)
	env := &policy.Env{
		W: w, A: a, L: led,
		Horizon:         cfg.HorizonSec,
		PollSec:         cfg.PollSec,
		RequestFrac:     cfg.RequestFrac,
		CooldownSec:     cfg.CooldownSec,
		PendingGraceSec: cfg.PendingGraceSec,
		NoFill:          cfg.NoFill,
		Progressive:     cfg.Progressive,
		MaxCovers:       cfg.MaxCovers,
		InstanceBudgetJ: cfg.InstanceBudgetJ,
		AuditEverySec:   cfg.AuditEverySec,
		Scheduler:       cfg.Scheduler,
		Rand:            r,
		Probe:           cfg.Probe,
		Targets:         make(map[wrsn.NodeID]bool),
		Blocked:         make(map[wrsn.NodeID]bool),
	}
	pol, rp, err := policy.FromState(cs.Policy, env)
	if err != nil {
		return nil, err
	}
	keys := append([]wrsn.KeyNode(nil), cs.Keys...)
	for _, k := range keys {
		w.MarkKey(k.ID)
	}
	if cfg.Checkpoint != nil {
		ck := &checkpointer{
			plan: cfg.Checkpoint, nw: nw, ch: ch, w: w, led: led,
			env: env, pol: pol, keys: keys, r: r, last: time.Now(),
		}
		env.Checkpoint = ck.barrier
	}
	if err := policy.DriveResume(env, pol, rp); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finish(led, w, ch, cfg, pol.Name(), keys, pol.Planned()), nil
}
