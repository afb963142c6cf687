// Package jobspec defines the canonical, JSON-round-trippable
// description of one campaign job — scenario, campaign knobs, fault
// load, fleet size — and the single execution path that turns a Spec
// into an Outcome. The daemon (internal/service), cmd/wrsn-sim and
// cmd/csa-attack all build their runs from a Spec, so "submit this job
// to a daemon" and "run it in-process" are the same computation by
// construction: every piece of randomness derives from seeds carried in
// the Spec, never from submission order, worker identity, or wall clock.
//
// A Spec deliberately carries only serializable data. Its campaign knobs
// are campaign.Config itself, whose JSON tags are the wire form; the
// per-run fields of campaign.Config never cross the wire. The telemetry
// Probe comes from the caller, and the fault Plan is compiled from the
// Spec's faults.Spec afresh for every run, honoring the plan's
// single-use contract.
package jobspec

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
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

// Campaign is the campaign knobs inside a Spec: campaign.Config, whose
// JSON tags name each knob on the wire.
type Campaign = campaign.Config

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
	if err := s.Campaign.Validate(); err != nil {
		return nil, fmt.Errorf("jobspec: %w", err)
	}
	if s.Faults != nil && s.Faults.RequestLossProb < 0 {
		return nil, fmt.Errorf("jobspec: negative request-loss probability %v", s.Faults.RequestLossProb)
	}
	return snap, nil
}

// Config materializes the campaign.Config for a run on an n-node
// network: the Spec's knobs, the caller's probe, and a fresh single-use
// fault plan compiled from the fault spec. It does not fail; the knobs
// are checked by Validate and again when the run starts.
func (s Spec) Config(probe obs.Probe, n int) (campaign.Config, error) {
	return s.config(RunOptions{Probe: probe}, n, s.Scenario), nil
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
func (s Spec) config(opts RunOptions, n int, sc trace.Scenario) campaign.Config {
	// The per-run fields come from opts and s.Faults, never from
	// s.Campaign: they do not cross the wire, so a run behind a daemon
	// would not see them.
	cfg := s.Campaign
	cfg.Probe, cfg.Faults, cfg.Checkpoint = opts.Probe, nil, nil
	if s.Faults != nil {
		cfg.Faults = faults.New(*s.Faults, n)
	}
	if opts.Checkpoint != nil {
		plan := *opts.Checkpoint
		if plan.Scenario == (trace.Scenario{}) {
			plan.Scenario = sc
		}
		cfg.Checkpoint = &plan
	}
	return cfg
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
		cfg := s.config(opts, snap.NodeCount(), snap.Scenario())
		if s.Kind == KindFleet {
			return fleetResult(campaign.ResumeFleet(ctx, snap, cfg))
		}
		return outcomeResult(campaign.Resume(ctx, snap, cfg))
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
	cfg := s.config(opts, nw.Len(), s.Scenario)
	ch.Instrument(cfg.Probe)
	switch s.Kind {
	case KindFleet:
		fleet := ch.Fleet(s.Chargers)
		for _, c := range fleet[1:] {
			c.Instrument(cfg.Probe)
		}
		return fleetResult(campaign.RunLegitFleet(ctx, nw, fleet, cfg))
	case KindAttack:
		return outcomeResult(campaign.RunAttack(ctx, nw, ch, cfg))
	default: // KindLegit; validation already rejected anything else
		return outcomeResult(campaign.RunLegit(ctx, nw, ch, cfg))
	}
}

// outcomeResult and fleetResult wrap what a campaign run returns as a
// Result.
func outcomeResult(o *campaign.Outcome, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Outcome: o}, nil
}

func fleetResult(fo *campaign.FleetOutcome, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{Fleet: fo}, nil
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
