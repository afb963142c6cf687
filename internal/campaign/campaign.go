// Package campaign orchestrates end-to-end simulations on a live network:
// the legitimate on-demand charging service (the no-attack baseline) and
// the full charging spoofing attack, in which a compromised mobile charger
// executes a TIDE plan — spoofing key nodes inside their windows — while
// opportunistically serving every other request to keep network-side
// detectors quiet. Runs are deterministic under a seed.
//
// The package is a thin composition root over four layers:
//
//	policy  — decides the charger's next action (internal/campaign/policy)
//	session — charging-session physics, travel, defenses (…/session)
//	world   — clock, drain, deaths, requests, audits on the sim engine (…/world)
//	ledger  — accumulates everything a run produces (…/ledger)
//
// RunLegit, RunAttack, and RunLegitFleet wire the layers together and
// assemble the public Outcome from the ledger.
package campaign

import (
	"context"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/campaign/session"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Solver names accepted by Config.Solver.
const (
	SolverCSA           = attack.SolverCSA
	SolverCSAPolished   = attack.SolverCSAPolished
	SolverRandom        = attack.SolverRandom
	SolverGreedyNearest = attack.SolverGreedyNearest
	SolverDirect        = attack.SolverDirect
)

// ErrUnknownSolver reports an unrecognized Config.Solver.
var ErrUnknownSolver = attack.ErrUnknownSolver

// Config parameterizes a campaign run. It is also the campaign knobs of
// a job spec (internal/jobspec), whose wire form its JSON tags name; the
// per-run fields (Probe, Faults, Checkpoint) never cross the wire.
type Config struct {
	// Seed drives jitter sampling and randomized baselines.
	Seed uint64 `json:"seed"`
	// HorizonSec is the simulated duration; non-positive gets the builder
	// default (14 days).
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// RequestFrac is the battery fraction that triggers requests;
	// out-of-range gets the wrsn default.
	RequestFrac float64 `json:"request_frac,omitempty"`
	// CooldownSec is the post-session re-request suppression;
	// non-positive gets the builder default (4 h).
	CooldownSec float64 `json:"cooldown_sec,omitempty"`
	// PollSec bounds the request-scan granularity; non-positive gets
	// DefaultPollSec.
	PollSec float64 `json:"poll_sec,omitempty"`
	// Solver picks the attack planner (RunAttack only); empty gets CSA.
	Solver string `json:"solver,omitempty"`
	// Scheduler names the on-demand policy for legitimate service and for
	// the attacker's opportunistic fill (see charging.ByName); empty gets
	// NJNP. Each run resolves the name into its own instance, so a
	// stateful scheduler never carries one run's state into another.
	Scheduler string `json:"scheduler,omitempty"`
	// MaxCovers caps the TIDE instance's optional sites; see attack.
	MaxCovers int `json:"max_covers,omitempty"`
	// InstanceBudgetJ overrides the TIDE instance budget (sweeps);
	// non-positive uses the charger's remaining energy.
	InstanceBudgetJ float64 `json:"instance_budget_j,omitempty"`
	// Band is the spoofing RF band; the zero value gets the default.
	Band wpt.SpoofBand `json:"band,omitempty"`
	// NoFill makes the attacker execute only the planned stops and
	// ignore emergent requests — the ablation showing why live cover
	// service matters.
	NoFill bool `json:"no_fill,omitempty"`
	// SingleEmitter ablates the superposition primitive: with one coherent
	// element no null exists, so "spoof" stops degenerate into genuine
	// focused charges. Shows the attack is impossible without the
	// nonlinear superposition effect.
	SingleEmitter bool `json:"single_emitter,omitempty"`
	// Progressive lets the attacker re-derive key nodes as the topology
	// degrades: nodes that become articulation points only after earlier
	// kills join the target list mid-campaign. Off by default (the paper's
	// CSA plans against the initial topology).
	Progressive bool `json:"progressive,omitempty"`
	// SampleEverySec records a (time, alive, connected) sample at this
	// cadence for lifetime figures; non-positive disables sampling.
	SampleEverySec float64 `json:"sample_every_sec,omitempty"`
	// AuditEverySec is the cadence of the sink's cumulative detector
	// audit during attack runs. A flagged charger is impounded on the
	// spot and replaced by an honest one, so early detection saves the
	// remaining targets. Non-positive gets 24 h; negative one disables
	// live audits (judgment happens only at the horizon).
	AuditEverySec float64 `json:"audit_every_sec,omitempty"`
	// MinAuditSessions delays live audits until enough evidence exists;
	// non-positive gets 10.
	MinAuditSessions int `json:"min_audit_sessions,omitempty"`
	// PendingGraceSec is how long a request may sit in the queue before a
	// live audit counts it as ignored — queueing delays of a day or two
	// are normal for a single busy charger. Non-positive gets 48 h.
	PendingGraceSec float64 `json:"pending_grace_sec,omitempty"`
	// BenignFailRate is the probability that a genuine charging session
	// delivers nothing (misdocking, obstruction) — the background noise
	// that forces detectors to tolerate isolated zero-gain sessions. A
	// failed node re-requests right after its cooldown, so failures at
	// one node cluster in time; the default 0.005 reflects the net rate
	// after the operator's own redocking procedures. Non-positive gets
	// the default; negative disables failures entirely.
	BenignFailRate float64 `json:"benign_fail_rate,omitempty"`
	// Defense enables the countermeasure extensions (harvest
	// verification, neighbor witnessing); the zero value disables both.
	Defense defense.Config `json:"defense,omitempty"`
	// Shards is decoded and ignored: it once set a world-stepping
	// parallelism that never changed an Outcome, and it stays so that
	// job files written with it still decode under the strict decoder.
	Shards int `json:"shards,omitempty"`

	// Probe receives campaign telemetry (sessions, spoofs, deaths,
	// audits, defense exposures, charger travel, queueing delays); nil
	// gets the no-op probe. Telemetry is strictly observational: a run
	// with a recording probe produces a byte-identical Outcome to one
	// without.
	Probe obs.Probe `json:"-"`
	// Faults is the fault plan to inject (node hardware failures,
	// request loss, charger breakdowns, sink outages); nil or empty
	// leaves the run byte-identical to a fault-free one. Plans carry a
	// consumed loss stream and are single-use: build a fresh plan (same
	// faults.Spec) per run.
	Faults *faults.Plan `json:"-"`
	// Checkpoint arms live checkpointing: at handler-safe barriers the
	// run captures a live snapshot and hands it to the plan's Sink.
	// Capture is pure reads — a checkpointed run's Outcome is
	// byte-identical to an unhooked one. Nil disables checkpointing.
	Checkpoint *CheckpointPlan `json:"-"`
}

// Validate rejects an unknown solver (wrapping ErrUnknownSolver) or
// scheduler, and a sampling cadence below the effective poll_sec: the
// world changes only at steps, so a finer cadence records the same state
// again and again, and at 1e-3 s over a day exhausts memory. Every run
// checks it first; jobspec checks it when a job is submitted.
func (c Config) Validate() error {
	if c.Solver != "" && !attack.KnownSolver(c.Solver) {
		return fmt.Errorf("%w: %q", ErrUnknownSolver, c.Solver)
	}
	if c.Scheduler != "" {
		if _, err := charging.ByName(c.Scheduler); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	poll := c.PollSec
	if poll <= 0 {
		poll = DefaultPollSec
	}
	if c.SampleEverySec > 0 && c.SampleEverySec < poll {
		return fmt.Errorf("campaign: sample_every_sec %v is below poll_sec %v", c.SampleEverySec, poll)
	}
	return nil
}

// Sample is one point of the lifetime time series.
type Sample = ledger.Sample

// DefaultPollSec is the step bound a non-positive Config.PollSec gets.
const DefaultPollSec = 900

// prepare readies c for one run: it validates the knobs, applies the
// defaults and resolves the scheduler name into the run's own instance.
func (c *Config) prepare() (charging.Scheduler, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.HorizonSec <= 0 {
		c.HorizonSec = attack.DefaultHorizonSec
	}
	if c.RequestFrac <= 0 || c.RequestFrac >= 1 {
		c.RequestFrac = wrsn.DefaultRequestFraction
	}
	if c.CooldownSec <= 0 {
		c.CooldownSec = attack.DefaultCooldownSec
	}
	if c.PollSec <= 0 {
		c.PollSec = DefaultPollSec
	}
	if c.Solver == "" {
		c.Solver = SolverCSA
	}
	if c.Scheduler == "" {
		c.Scheduler = charging.NJNP{}.Name()
	}
	if c.Band == (wpt.SpoofBand{}) {
		c.Band = wpt.DefaultSpoofBand()
	}
	if c.AuditEverySec == 0 {
		c.AuditEverySec = 24 * 3600
	}
	if c.MinAuditSessions <= 0 {
		c.MinAuditSessions = 10
	}
	if c.PendingGraceSec <= 0 {
		c.PendingGraceSec = 48 * 3600
	}
	switch {
	case c.BenignFailRate == 0:
		c.BenignFailRate = 0.005
	case c.BenignFailRate < 0:
		c.BenignFailRate = 0
	}
	c.Probe = obs.Or(c.Probe)
	return charging.ByName(c.Scheduler)
}

// Outcome is the result of one campaign run.
type Outcome struct {
	// Solver names the planner ("legit" for the no-attack baseline).
	Solver string
	// KeyNodes is the plan-time key-node set.
	KeyNodes []wrsn.KeyNode
	// KeyDead counts plan-time key nodes dead at the horizon.
	KeyDead int
	// SkippedTargets counts key nodes the planner could not schedule.
	SkippedTargets int
	// Sessions is the full session record (ground truth).
	Sessions []charging.Session
	// Audit is what the sink observed.
	Audit detect.Audit
	// Verdicts holds each detector's judgment; Detected is their OR.
	Verdicts []detect.Verdict
	Detected bool
	// CoverUtilityJ is delivered-capped-at-requested energy over genuine
	// sessions.
	CoverUtilityJ float64
	// EnergySpentJ is the charger's total energy use.
	EnergySpentJ float64
	// DeadTotal counts all dead nodes at the horizon; Disconnected counts
	// alive nodes without a sink route.
	DeadTotal    int
	Disconnected int
	// RequestsIssued / RequestsServed tally the demand the charger saw.
	RequestsIssued int
	RequestsServed int
	// Caught reports whether a live audit impounded the charger mid-run;
	// CaughtAt is when and CaughtBy names the detector (zero values when
	// not caught). Detected additionally covers the final horizon audit.
	Caught   bool
	CaughtAt float64
	CaughtBy string
	// FirstDeathAt is the earliest node death, or +Inf when none died.
	FirstDeathAt float64
	// Planned is the TIDE plan the attacker executed (nil for legit runs).
	Planned *attack.Result
	// Samples is the lifetime time series (empty unless SampleEverySec
	// was set).
	Samples []Sample
	// Exposures lists countermeasure catches (attack runs) and
	// FalseAlarms counts countermeasure alerts on genuine sessions
	// (benign failures look exactly like spoofs to a harvest check).
	Exposures   []defense.Exposure
	FalseAlarms int
	// ExtraTargets counts emergent key nodes a Progressive attacker
	// engaged beyond the plan-time set.
	ExtraTargets int
	// MeanWaitSec is the average queueing delay between a request and the
	// start of its session, over served requests (0 when nothing was
	// served).
	MeanWaitSec float64
	// WitnessSamples counts neighbor-witness measurements taken, the
	// coverage statistic of the witnessing countermeasure.
	WitnessSamples int

	// faults is the run's fault ledger, nil on fault-free runs. It is
	// unexported (read it via FaultReport) so the canonical-JSON digest
	// of a fault-free Outcome — which walks exported fields only — stays
	// byte-identical to builds that predate fault injection.
	faults *faults.Report
}

// FaultReport returns the run's fault ledger — injected vs. survived vs.
// fatal counts, downtime accounting, sink outage windows — or nil when
// the run had no fault plan.
func (o *Outcome) FaultReport() *faults.Report { return o.faults }

// KeyExhaustRatio returns KeyDead / len(KeyNodes), the paper's headline
// metric; 0 when the network had no key nodes.
func (o *Outcome) KeyExhaustRatio() float64 {
	if len(o.KeyNodes) == 0 {
		return 0
	}
	return float64(o.KeyDead) / float64(len(o.KeyNodes))
}

// layers wires the four layers for one single-charger run. The returned
// Env carries the run configuration into the policy driver.
func layers(ctx context.Context, nw *wrsn.Network, ch *mc.Charger, cfg Config, sched charging.Scheduler) (*policy.Env, *ledger.L, *world.W) {
	led := ledger.New()
	w := world.New(ctx, nw, led, worldParams(cfg), cfg.Probe)
	// The campaign stream must be split before any draw so solver and
	// session randomness stay on the pre-refactor sequence.
	r := rng.New(cfg.Seed).Split("campaign")
	return newEnv(w, led, ch, r, cfg, sched), led, w
}

// newEnv puts the charger's session actor over the world and ledger and
// wraps the three in the policy Env (shared by the fresh-run and resume
// constructors). The actor and the Env draw from the one stream r.
func newEnv(w *world.W, led *ledger.L, ch *mc.Charger, r *rng.Stream, cfg Config, sched charging.Scheduler) *policy.Env {
	return &policy.Env{
		W: w, L: led,
		A:         session.NewActor(w, ch, led, r, cfg.Probe),
		Scheduler: sched,
		Rand:      r,
		Probe:     cfg.Probe,
	}
}

// run drives one single-charger campaign under the given policy and
// assembles its Outcome.
func run(ctx context.Context, nw *wrsn.Network, ch *mc.Charger, cfg Config, sched charging.Scheduler, pol policy.Policy) (*Outcome, error) {
	env, _, _ := layers(ctx, nw, ch, cfg, sched)
	return drive(ctx, env, cfg, pol, nw.KeyNodes(), nil)
}

// drive is the tail every single-charger run shares: mark the key
// nodes, arm checkpointing, drive pol to the horizon — from the start,
// or from the barrier b when resuming — and assemble the Outcome.
func drive(ctx context.Context, env *policy.Env, cfg Config, pol policy.Policy, keys []wrsn.KeyNode, b *policy.Barrier) (*Outcome, error) {
	w, ch := env.W, env.A.Ch
	for _, k := range keys {
		w.MarkKey(k.ID)
	}
	if cfg.Checkpoint != nil {
		armCheckpoints(cfg.Checkpoint, env, pol, keys)
	}
	var err error
	if b == nil {
		err = policy.Drive(env, pol)
	} else {
		err = policy.DriveResume(env, pol, *b)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return finish(env.L, w, ch, cfg, pol.Name(), keys, pol.Planned()), nil
}

// RunLegit simulates the uncompromised network: the charger serves
// requests under the configured scheduler until the horizon or budget
// exhaustion. It is both the lifetime baseline and the negative sample
// for detector ROC curves.
//
// The context is first-class: the simulation checks ctx at every
// world-step and scheduling boundary and returns ctx.Err() (typically
// context.Canceled or context.DeadlineExceeded) as soon as it observes a
// canceled context. Callers without cancellation needs pass
// context.Background(); the wrsncsa package keeps no-ctx convenience
// wrappers.
func RunLegit(ctx context.Context, nw *wrsn.Network, ch *mc.Charger, cfg Config) (*Outcome, error) {
	sched, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	return run(ctx, nw, ch, cfg, sched, policy.NewLegit())
}

// RunAttack simulates the compromised charger: it plans a TIDE solution at
// time zero (key nodes from the live topology, windows from depletion
// forecasts), executes the stops at their scheduled times, and — unless
// NoFill is set — serves emergent requests opportunistically between stops
// to keep its cover. Key-node requests are never genuinely served.
//
// The context is first-class: the campaign checks ctx at every
// world-step, target-selection, and service boundary, and returns
// ctx.Err() promptly once the context is canceled.
func RunAttack(ctx context.Context, nw *wrsn.Network, ch *mc.Charger, cfg Config) (*Outcome, error) {
	sched, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	return run(ctx, nw, ch, cfg, sched, policy.NewAttacker(cfg.Solver))
}

// finish assembles the outcome after the horizon.
func finish(led *ledger.L, w *world.W, ch *mc.Charger, cfg Config, solver string, keys []wrsn.KeyNode, planned *attack.Result) *Outcome {
	rep := w.Close() // first: it adds the still-pending requests to the audit
	o := &Outcome{
		Solver:         solver,
		KeyNodes:       keys,
		Sessions:       led.Sessions,
		Audit:          led.Audit,
		EnergySpentJ:   ch.Spent(),
		RequestsIssued: led.Issued,
		RequestsServed: led.Served,
		FirstDeathAt:   led.FirstDeath,
		Planned:        planned,
		Samples:        led.Samples,
		Caught:         led.Caught,
		CaughtAt:       led.CaughtAt,
		CaughtBy:       led.CaughtBy,
		Exposures:      led.Exposures,
		FalseAlarms:    led.FalseAlarms,
		WitnessSamples: led.WitnessSamples,
		ExtraTargets:   led.ExtraTargets,
		MeanWaitSec:    led.MeanWaitSec(),
		faults:         rep,
	}
	if planned != nil {
		o.SkippedTargets = len(planned.SkippedTargets)
	}
	nw := w.Network()
	// Death means battery exhaustion; a node hardware-failed at the
	// horizon is out of service but not dead (identical predicates on
	// fault-free runs, where nothing is ever hardware-failed).
	for _, k := range keys {
		if nw.Depleted(k.ID) {
			o.KeyDead++
		}
	}
	for _, s := range led.Sessions {
		if s.Kind == charging.SessionFocus {
			o.CoverUtilityJ += s.Utility()
		}
	}
	for i := range nw.Len() {
		switch id := wrsn.NodeID(i); {
		case nw.Depleted(id):
			o.DeadTotal++
		case !nw.Alive(id):
			// Hardware-failed: out of service, counted in the fault
			// report rather than as dead or disconnected.
		case !nw.Connected(id):
			o.Disconnected++
		}
	}
	o.Verdicts = detect.JudgeProbed(led.Audit, detect.Suite(), cfg.Probe, w.Now())
	o.Detected = led.Caught || detect.AnyFlagged(o.Verdicts)
	if cfg.Probe.Enabled() {
		cfg.Probe.Set("campaign.key_dead", float64(o.KeyDead))
		cfg.Probe.Set("campaign.dead_total", float64(o.DeadTotal))
		cfg.Probe.Set("campaign.energy_spent_j", o.EnergySpentJ)
		cfg.Probe.Set("campaign.mean_wait_sec", o.MeanWaitSec)
	}
	return o
}
