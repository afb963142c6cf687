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
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/detect"
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

// worldParams maps the prepared run config onto the one knob set every
// layer reads (world.Params): the world holds it, and the session and
// policy layers read it through the world. It is the one place a Config
// knob is copied, shared by the fresh-run and resume constructors and by
// the single-charger and fleet runs.
func worldParams(cfg Config) world.Params {
	return world.Params{
		HorizonSec:       cfg.HorizonSec,
		PollSec:          cfg.PollSec,
		RequestFrac:      cfg.RequestFrac,
		CooldownSec:      cfg.CooldownSec,
		SampleEverySec:   cfg.SampleEverySec,
		AuditEverySec:    cfg.AuditEverySec,
		MinAuditSessions: cfg.MinAuditSessions,
		PendingGraceSec:  cfg.PendingGraceSec,
		Detectors:        detect.Suite(),
		Faults:           cfg.Faults,
		NoFill:           cfg.NoFill,
		Progressive:      cfg.Progressive,
		MaxCovers:        cfg.MaxCovers,
		InstanceBudgetJ:  cfg.InstanceBudgetJ,
		Band:             cfg.Band,
		BenignFailRate:   cfg.BenignFailRate,
		SingleEmitter:    cfg.SingleEmitter,
		Defense:          cfg.Defense,
	}
}

// offer is the one capture gate of the single-charger and fleet runs,
// called at every barrier. When Stop fires, or Every has passed since
// *last (or Every is non-positive), it captures a snapshot through take
// and hands it to Sink; when Stop fired it then ends the run with
// ErrStopped.
func (p *CheckpointPlan) offer(last *time.Time, take func() (*snapshot.Snapshot, error)) error {
	stop := p.Stop != nil && p.Stop()
	if !stop && p.Every > 0 && time.Since(*last) < p.Every {
		return nil
	}
	snap, err := take()
	if err != nil {
		return err
	}
	if err := p.Sink(snap); err != nil {
		return err
	}
	*last = time.Now()
	if stop {
		return ErrStopped
	}
	return nil
}

// schedTour is a scheduler's checkpoint form: PeriodicTSP's unserved
// tour, nil for the stateless schedulers.
func schedTour(s charging.Scheduler) []wrsn.NodeID {
	if p, ok := s.(*charging.PeriodicTSP); ok {
		return p.Tour()
	}
	return nil
}

// setTour gives a resumed run's fresh scheduler back the tour schedTour
// captured.
func setTour(s charging.Scheduler, tour []wrsn.NodeID) {
	if p, ok := s.(*charging.PeriodicTSP); ok {
		p.SetTour(tour)
	}
}

// restoreLedger checks a checkpoint's ledger and returns the resumed
// run's own copy of it.
func restoreLedger(l *ledger.L) (ledger.L, error) {
	if err := l.Validate(); err != nil {
		return ledger.L{}, fmt.Errorf("campaign: resume: %w", err)
	}
	return l.Clone(), nil
}

// armCheckpoints makes every policy barrier of a single-charger run a
// capture point of plan.
func armCheckpoints(plan *CheckpointPlan, env *policy.Env, pol policy.Policy, keys []wrsn.KeyNode) {
	last := time.Now()
	env.Checkpoint = func(b policy.Barrier) error {
		return plan.offer(&last, func() (*snapshot.Snapshot, error) {
			ps, err := policy.CaptureState(pol, b)
			if err != nil {
				return nil, err
			}
			w := env.W
			return snapshot.CaptureLive(plan.Scenario, w.Network(), env.A.Ch, w.Engine(), &snapshot.CampaignState{
				World:  w.State(),
				Ledger: env.L.Clone(),
				Rand:   env.Rand.State(),
				Keys:   append([]wrsn.KeyNode(nil), keys...),
				Policy: ps,
				Tour:   schedTour(env.Scheduler),
			})
		})
	}
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
	sched, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	setTour(sched, cs.Tour)
	nw, ch, _, err := snap.Fork()
	if err != nil {
		return nil, err
	}
	if ch == nil {
		return nil, fmt.Errorf("campaign: single-charger checkpoint has no charger")
	}
	for _, k := range cs.Keys {
		if !nw.Has(k.ID) {
			return nil, fmt.Errorf("campaign: checkpoint key node %d out of range [0,%d)", k.ID, nw.Len())
		}
	}
	led, err := restoreLedger(&cs.Ledger)
	if err != nil {
		return nil, err
	}
	w, err := world.Resume(ctx, nw, &led, worldParams(cfg), cfg.Probe, cs.World)
	if err != nil {
		return nil, err
	}
	if err := w.Engine().RestorePending(snap.PendingEvents()); err != nil {
		return nil, err
	}
	env := newEnv(w, &led, ch, rng.FromState(cs.Rand), cfg, sched)
	pol, b, err := policy.FromState(cs.Policy, nw)
	if err != nil {
		return nil, err
	}
	return drive(ctx, env, cfg, pol, append([]wrsn.KeyNode(nil), cs.Keys...), &b)
}
