// Package jobspec defines the canonical, JSON-round-trippable
// description of one campaign job — scenario, campaign knobs, fault
// load, fleet size — and the single execution path that turns a Spec
// into an Outcome. The daemon (internal/service), cmd/wrsn-sim and
// cmd/csa-attack all build their runs from a Spec, so "submit this job
// to a daemon" and "run it in-process" are the same computation by
// construction: every piece of randomness derives from seeds carried in
// the Spec, never from submission order, worker identity, or wall clock.
//
// A Spec deliberately carries only serializable data. The non-wire
// knobs of campaign.Config — a Scheduler implementation, a custom
// detector suite, a live telemetry Probe, a compiled fault Plan — are
// represented by their canonical serializable forms (a scheduler name,
// the default suite, a caller-side probe, a faults.Spec compiled freshly
// per run, honoring the plan's single-use contract).
package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Job kinds: the attack campaign, the legitimate single-charger
// baseline, and the legitimate multi-charger fleet.
const (
	KindAttack = "attack"
	KindLegit  = "legit"
	KindFleet  = "fleet"
)

// Spec is one complete campaign job. The zero value is not runnable;
// start from Default and adjust.
type Spec struct {
	// Kind selects the campaign flavor: KindAttack, KindLegit, KindFleet.
	Kind string `json:"kind"`
	// Scenario describes the deployment to build (trace.Scenario is
	// already the serializable scenario form used by -scenario files).
	Scenario trace.Scenario `json:"scenario"`
	// Campaign carries the campaign knobs in wire form.
	Campaign Campaign `json:"campaign"`
	// Faults, when non-nil, is compiled into a fresh fault plan for every
	// run (plans are single-use; specs are reusable).
	Faults *faults.Spec `json:"faults,omitempty"`
	// Chargers is the fleet size; required ≥ 1 for KindFleet, must be 0
	// for the single-charger kinds.
	Chargers int `json:"chargers,omitempty"`
	// Snapshot, when non-empty, is an encoded barrier snapshot
	// (internal/snapshot wire form, base64 in the spec JSON): the run
	// forks the captured world — skipping placement and routing
	// convergence — instead of building Scenario. The snapshot carries its
	// own scenario provenance, so Scenario may be zero. Forking reproduces
	// the unsnapshotted run byte-identically (the snapshot barrier
	// precedes all campaign randomness), so carrying a snapshot changes
	// cost, never results. A live checkpoint belongs in ResumeFrom.
	Snapshot []byte `json:"snapshot,omitempty"`
	// ResumeFrom, when non-empty, is an encoded live checkpoint (base64
	// in the spec JSON): instead of starting the campaign, the run resumes
	// it mid-flight from the captured state and produces the exact Result
	// the uninterrupted run would have. The rest of the Spec must carry
	// the original job's parameters — the daemon pairs a persisted spec
	// with its latest checkpoint on restart. ResumeFrom supersedes
	// Snapshot (a live checkpoint embeds its own world).
	ResumeFrom []byte `json:"resume_from,omitempty"`
}

// Campaign is the serializable mirror of campaign.Config: identical
// knobs, with the interface-valued fields replaced by their canonical
// wire forms (Scheduler by name; detectors fixed to the default suite;
// probe and fault plan supplied at run time). Zero values defer to the
// same defaults campaign.Config applies.
type Campaign struct {
	Seed             uint64         `json:"seed"`
	HorizonSec       float64        `json:"horizon_sec,omitempty"`
	RequestFrac      float64        `json:"request_frac,omitempty"`
	CooldownSec      float64        `json:"cooldown_sec,omitempty"`
	PollSec          float64        `json:"poll_sec,omitempty"`
	Solver           string         `json:"solver,omitempty"`
	Scheduler        string         `json:"scheduler,omitempty"`
	MaxCovers        int            `json:"max_covers,omitempty"`
	InstanceBudgetJ  float64        `json:"instance_budget_j,omitempty"`
	Band             wpt.SpoofBand  `json:"band,omitempty"`
	NoFill           bool           `json:"no_fill,omitempty"`
	SingleEmitter    bool           `json:"single_emitter,omitempty"`
	Progressive      bool           `json:"progressive,omitempty"`
	SampleEverySec   float64        `json:"sample_every_sec,omitempty"`
	AuditEverySec    float64        `json:"audit_every_sec,omitempty"`
	MinAuditSessions int            `json:"min_audit_sessions,omitempty"`
	PendingGraceSec  float64        `json:"pending_grace_sec,omitempty"`
	BenignFailRate   float64        `json:"benign_fail_rate,omitempty"`
	Defense          defense.Config `json:"defense,omitempty"`
	// Shards is decoded and ignored. It once set a world-stepping
	// parallelism that never changed an Outcome, and the world now
	// always steps on one goroutine; the field stays so that specs
	// written with it still decode under the strict decoder.
	Shards int `json:"shards,omitempty"`
}

// Default returns the evaluation-default legit baseline at the given
// scenario seed and node count; set Kind/Solver/etc. from there.
func Default(seed uint64, n int) Spec {
	return Spec{
		Kind:     KindLegit,
		Scenario: trace.DefaultScenario(seed, n),
		Campaign: Campaign{Seed: seed},
	}
}

// Validate checks everything that can be checked without building the
// world, so a daemon can reject a bad Spec at submission time with a
// useful message instead of failing the job later.
func (s Spec) Validate() error {
	_, err := s.validate()
	return err
}

// validate is Validate returning the snapshot the run starts from: the
// decoded ResumeFrom checkpoint, else the decoded carried Snapshot, else
// nil. A run reuses it instead of decoding the bytes again.
func (s Spec) validate() (*snapshot.Snapshot, error) {
	switch s.Kind {
	case KindAttack, KindLegit:
		if s.Chargers != 0 {
			return nil, fmt.Errorf("jobspec: kind %q is single-charger; chargers must be 0, got %d", s.Kind, s.Chargers)
		}
	case KindFleet:
		if s.Chargers < 1 {
			return nil, fmt.Errorf("jobspec: kind %q needs chargers ≥ 1, got %d", s.Kind, s.Chargers)
		}
	default:
		return nil, fmt.Errorf("jobspec: unknown kind %q (want %q, %q or %q)", s.Kind, KindAttack, KindLegit, KindFleet)
	}
	var (
		snap *snapshot.Snapshot
		err  error
	)
	switch {
	case len(s.ResumeFrom) > 0:
		if snap, err = snapshot.Decode(s.ResumeFrom); err != nil {
			return nil, fmt.Errorf("jobspec: resume_from: %w", err)
		}
		if !snap.Live() {
			return nil, errors.New("jobspec: resume_from holds a barrier snapshot, not a live checkpoint")
		}
		if fleet := snap.Campaign().Fleet != nil; fleet != (s.Kind == KindFleet) {
			return nil, fmt.Errorf("jobspec: resume_from checkpoint does not match kind %q", s.Kind)
		}
	case len(s.Snapshot) > 0:
		if snap, err = snapshot.Decode(s.Snapshot); err != nil {
			return nil, fmt.Errorf("jobspec: %w", err)
		}
		if snap.Live() {
			return nil, errors.New("jobspec: snapshot holds a live checkpoint; carry it in resume_from to resume the run")
		}
	case s.Scenario.Deploy.N <= 0:
		return nil, fmt.Errorf("jobspec: scenario needs a positive node count, got %d", s.Scenario.Deploy.N)
	case s.Scenario.Deploy.Clusters > s.Scenario.Deploy.N:
		// Clustered placement draws one center per cluster and can use
		// at most N of them; a huge count exhausts memory on the centers.
		return nil, fmt.Errorf("jobspec: scenario clusters %d exceeds the node count %d",
			s.Scenario.Deploy.Clusters, s.Scenario.Deploy.N)
	}
	if sv := s.Campaign.Solver; sv != "" && !policy.KnownSolver(sv) { // empty is the default CSA
		return nil, fmt.Errorf("jobspec: unknown solver %q", s.Campaign.Solver)
	}
	if _, err = s.scheduler(); err != nil {
		return nil, err
	}
	if s.Faults != nil && s.Faults.RequestLossProb < 0 {
		return nil, fmt.Errorf("jobspec: negative request-loss probability %v", s.Faults.RequestLossProb)
	}
	// The world changes only at steps, at most poll_sec apart, so a
	// finer cadence records the step-time state again and again; at
	// 1e-3 s over a day it exhausts memory.
	if c := s.Campaign; c.SampleEverySec > 0 && c.SampleEverySec < c.pollSec() {
		return nil, fmt.Errorf("jobspec: sample_every_sec %v is below poll_sec %v", c.SampleEverySec, c.pollSec())
	}
	return snap, nil
}

// pollSec is the effective step bound: poll_sec, or the campaign
// default when unset.
func (c Campaign) pollSec() float64 {
	if c.PollSec <= 0 {
		return campaign.DefaultPollSec
	}
	return c.PollSec
}

// scheduler resolves the scheduler name; empty means the campaign
// default (NJNP, applied by campaign.Config itself).
func (s Spec) scheduler() (charging.Scheduler, error) {
	if s.Campaign.Scheduler == "" {
		return nil, nil
	}
	sched, err := charging.ByName(s.Campaign.Scheduler)
	if err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	return sched, nil
}

// Config materializes the campaign.Config for a run on an n-node
// network: scheduler resolved by name, a fresh single-use fault plan
// compiled from the fault spec, and the caller's probe attached.
func (s Spec) Config(probe obs.Probe, n int) (campaign.Config, error) {
	sched, err := s.scheduler()
	if err != nil {
		return campaign.Config{}, err
	}
	c := s.Campaign
	cfg := campaign.Config{
		Seed:             c.Seed,
		HorizonSec:       c.HorizonSec,
		RequestFrac:      c.RequestFrac,
		CooldownSec:      c.CooldownSec,
		PollSec:          c.PollSec,
		Solver:           c.Solver,
		Scheduler:        sched,
		MaxCovers:        c.MaxCovers,
		InstanceBudgetJ:  c.InstanceBudgetJ,
		Band:             c.Band,
		NoFill:           c.NoFill,
		SingleEmitter:    c.SingleEmitter,
		Progressive:      c.Progressive,
		SampleEverySec:   c.SampleEverySec,
		AuditEverySec:    c.AuditEverySec,
		MinAuditSessions: c.MinAuditSessions,
		PendingGraceSec:  c.PendingGraceSec,
		BenignFailRate:   c.BenignFailRate,
		Defense:          c.Defense,
		Probe:            probe,
	}
	if s.Faults != nil {
		cfg.Faults = faults.New(*s.Faults, n)
	}
	return cfg, nil
}

// Result is what a run produces: exactly one of Outcome (single-charger
// kinds) or Fleet (KindFleet) is non-nil.
type Result struct {
	Outcome *campaign.Outcome
	Fleet   *campaign.FleetOutcome
}

// Digest returns the hex SHA-256 of the result's canonical JSON form —
// the byte-identity currency of the golden harness and the daemon.
func (r *Result) Digest() (string, error) {
	if r.Fleet != nil {
		return digest.Sum(r.Fleet)
	}
	return digest.Sum(r.Outcome)
}

// CanonicalJSON returns the result's canonical JSON encoding (non-finite
// floats stringified, map keys sorted) — the outcome body the daemon
// serves.
func (r *Result) CanonicalJSON() ([]byte, error) {
	if r.Fleet != nil {
		return digest.Canonical(r.Fleet)
	}
	return digest.Canonical(r.Outcome)
}

// WithSnapshot returns a copy of the Spec carrying the snapshot's
// encoded form; the run will fork the captured world instead of building
// Scenario.
func (s Spec) WithSnapshot(snap *snapshot.Snapshot) (Spec, error) {
	b, err := snap.Encode()
	if err != nil {
		return Spec{}, fmt.Errorf("jobspec: %w", err)
	}
	s.Snapshot = b
	s.Scenario = snap.Scenario()
	return s, nil
}

// world materializes the network and first charger: forked from the
// carried snapshot when there is one, built from the scenario otherwise.
// Either way the charger is parked at the sink with default params (a
// snapshot captured without a charger falls back to a fresh one).
func (s Spec) world(snap *snapshot.Snapshot) (*wrsn.Network, *mc.Charger, error) {
	if snap != nil {
		nw, ch, err := snap.ForkWorld()
		if err != nil {
			return nil, nil, fmt.Errorf("jobspec: %w", err)
		}
		return nw, ch, nil
	}
	nw, _, err := s.Scenario.Build()
	if err != nil {
		return nil, nil, err
	}
	return nw, mc.New(nw.Sink(), mc.DefaultParams()), nil
}

// RunOptions carries the per-execution (non-wire) knobs of a run: the
// telemetry probe and, for crash-safe executions, a live checkpoint
// plan. The zero value runs unobserved and uncheckpointed.
type RunOptions struct {
	// Probe receives run telemetry; nil gets the no-op probe.
	Probe obs.Probe
	// Checkpoint, when non-nil, arms live checkpointing (the plan's
	// Scenario is filled from the Spec if left zero). The run may then
	// end with campaign.ErrStopped if the plan's Stop fires.
	Checkpoint *campaign.CheckpointPlan
}

// config is Config with the run's checkpoint plan armed; sc fills the
// plan's Scenario when the caller left it zero.
func (s Spec) config(opts RunOptions, n int, sc trace.Scenario) (campaign.Config, error) {
	cfg, err := s.Config(obs.Or(opts.Probe), n)
	if err != nil || opts.Checkpoint == nil {
		return cfg, err
	}
	plan := *opts.Checkpoint
	if plan.Scenario == (trace.Scenario{}) {
		plan.Scenario = sc
	}
	cfg.Checkpoint = &plan
	return cfg, nil
}

// Run executes the Spec: materialize the world (scenario build, or
// snapshot fork when the spec carries one), park the charger(s) at the
// sink, compile the fault plan, run the campaign. All randomness derives
// from Spec seeds, so the same Spec always produces the same Result —
// in-process or behind a daemon, at any concurrency, with or without a
// snapshot.
func Run(ctx context.Context, s Spec, probe obs.Probe) (*Result, error) {
	return RunOpts(ctx, s, RunOptions{Probe: probe})
}

// RunOpts is Run with execution options. A Spec carrying ResumeFrom
// continues the checkpointed campaign instead of starting it; either way
// the Result is byte-identical to an uninterrupted, unobserved run.
func RunOpts(ctx context.Context, s Spec, opts RunOptions) (*Result, error) {
	snap, err := s.validate()
	if err != nil {
		return nil, err
	}
	if len(s.ResumeFrom) > 0 {
		cfg, err := s.config(opts, snap.NodeCount(), snap.Scenario())
		if err != nil {
			return nil, err
		}
		if s.Kind == KindFleet {
			fo, err := campaign.ResumeFleet(ctx, snap, cfg)
			if err != nil {
				return nil, err
			}
			return &Result{Fleet: fo}, nil
		}
		o, err := campaign.Resume(ctx, snap, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Outcome: o}, nil
	}
	nw, ch, err := s.world(snap)
	if err != nil {
		return nil, err
	}
	return s.runOn(ctx, nw, ch, opts)
}

// RunOn executes the Spec on a world the caller materialized — nw and a
// charger ch parked where the run starts — instead of the one the Spec
// describes; the experiment sweeps pass forks of their cached snapshots.
// It validates the Spec as Run does, and the result equals Run's when
// the world equals the Spec's. A Spec carrying ResumeFrom is rejected:
// a checkpoint resumes on its own world, through RunOpts.
func RunOn(ctx context.Context, s Spec, nw *wrsn.Network, ch *mc.Charger, opts RunOptions) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.ResumeFrom) > 0 {
		return nil, errors.New("jobspec: RunOn cannot resume a checkpoint; run the spec with RunOpts")
	}
	return s.runOn(ctx, nw, ch, opts)
}

// runOn is RunOn after validation: the one place a job's kind picks its
// campaign, the fleet is forked from the first charger, and the chargers
// are instrumented.
func (s Spec) runOn(ctx context.Context, nw *wrsn.Network, ch *mc.Charger, opts RunOptions) (*Result, error) {
	cfg, err := s.config(opts, nw.Len(), s.Scenario)
	if err != nil {
		return nil, err
	}
	ch.Instrument(cfg.Probe)
	switch s.Kind {
	case KindFleet:
		fleet := make([]*mc.Charger, s.Chargers)
		fleet[0] = ch
		for i := 1; i < len(fleet); i++ {
			fleet[i] = ch.Fork()
			fleet[i].Instrument(cfg.Probe)
		}
		fo, err := campaign.RunLegitFleet(ctx, nw, fleet, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Fleet: fo}, nil
	case KindAttack:
		o, err := campaign.RunAttack(ctx, nw, ch, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Outcome: o}, nil
	default: // KindLegit; validation already rejected anything else
		o, err := campaign.RunLegit(ctx, nw, ch, cfg)
		if err != nil {
			return nil, err
		}
		return &Result{Outcome: o}, nil
	}
}

// Decode parses a Spec from JSON, rejecting unknown fields so typos in
// hand-written job files fail loudly at submit time, and rejecting
// anything but whitespace after the spec. An empty snapshot or
// resume_from decodes as absent, the form Encode writes back.
func Decode(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("jobspec: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("jobspec: decode: trailing data after the spec")
	}
	if len(s.Snapshot) == 0 {
		s.Snapshot = nil
	}
	if len(s.ResumeFrom) == 0 {
		s.ResumeFrom = nil
	}
	return s, nil
}

// Encode renders the Spec as indented JSON, the file form -emit-job
// writes and POST /v1/jobs accepts.
func (s Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("jobspec: encode: %w", err)
	}
	return append(b, '\n'), nil
}
