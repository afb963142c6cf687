// Package wrsncsa is the public API of the charging spoofing attack (CSA)
// reproduction: a complete wireless-rechargeable-sensor-network (WRSN)
// stack — WPT physics with coherent superposition and nonlinear
// rectification, network/routing/key-node analysis, on-demand charging, a
// mobile charger, TIDE attack planning, a detector suite, and end-to-end
// campaign simulation.
//
// The fastest way in:
//
//	nw, _, err := wrsncsa.BuildScenario(42, 200)
//	ch := wrsncsa.NewCharger(nw)
//	outcome, err := wrsncsa.Attack(ctx, nw, ch, wrsncsa.CampaignConfig{Seed: 42})
//	fmt.Println(outcome.KeyExhaustRatio(), outcome.Detected)
//
// # API conventions
//
// Run entry points (Attack, Legit, LegitFleet, RunJob) are
// context-first: ctx is the first parameter, the campaign checkpoints
// it at every world-step and service boundary, and ctx.Err() is
// returned promptly after cancellation. Pass context.Background() when
// cancellation is not needed.
//
// Every constructor and entry point that takes variation does so
// through a trailing variadic option family named after the call it
// configures — ScenarioOption for BuildScenario, ChargerOption for
// NewCharger, PlanOption for PlanTIDE, RunOption for the run entry
// points. All options are WithX functions; the zero-option call always
// reproduces the evaluation default.
//
// # Snapshots
//
// A Snapshot freezes a built world (deployment, routing, charger) so
// seed sweeps pay scenario construction once and fork per run:
//
//	snap, err := wrsncsa.BuildSnapshot(42, 200)
//	for seed := uint64(0); seed < 100; seed++ {
//		out, err := wrsncsa.Attack(ctx, nil, nil,
//			wrsncsa.CampaignConfig{Seed: seed}, wrsncsa.WithSnapshot(snap))
//		...
//	}
//
// Forked runs are byte-identical to rebuilding the scenario from
// scratch, and snapshots serialize (Encode/DecodeSnapshot), so a warm
// world can cross process boundaries — JobSpec.WithSnapshot embeds one
// in a daemon job.
//
// The re-exported subpackage types keep the full surface available:
// construct custom deployments with trace, inspect topology with wrsn,
// plan raw TIDE instances with attack, and judge audits with detect.
package wrsncsa

import (
	"context"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/testbed"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Re-exported core types. Each alias is the complete type; see the
// internal package documentation reachable through the alias for details.
type (
	// Network is a deployed WRSN with routing and key-node analysis.
	Network = wrsn.Network
	// NodeID identifies a sensor node.
	NodeID = wrsn.NodeID
	// KeyNode is a sink separator and its severance count.
	KeyNode = wrsn.KeyNode
	// Scenario reproducibly describes a deployment.
	Scenario = trace.Scenario
	// Charger is the mobile charger.
	Charger = mc.Charger
	// ChargerParams configures the charger.
	ChargerParams = mc.Params
	// CampaignConfig parameterizes campaign runs.
	CampaignConfig = campaign.Config
	// Outcome is a campaign result.
	Outcome = campaign.Outcome
	// Instance is a TIDE problem.
	Instance = attack.Instance
	// PlanResult is a solved TIDE instance.
	PlanResult = attack.Result
	// Detector judges charging audits.
	Detector = detect.Detector
	// Audit is the sink-side evidence a detector judges.
	Audit = detect.Audit
	// Array is a coherent multi-emitter WPT front end.
	Array = wpt.Array
	// SpoofBand is the RF interval a spoof must land in.
	SpoofBand = wpt.SpoofBand
	// BuilderConfig parameterizes TIDE instance construction.
	BuilderConfig = attack.BuilderConfig
	// Deployment selects a node-placement pattern for BuildScenario.
	Deployment = trace.Deployment
	// RoutingPolicy selects the routing objective.
	RoutingPolicy = wrsn.RoutingPolicy
)

// Deployment patterns and routing policies for scenario options.
const (
	DeployUniform   = trace.DeployUniform
	DeployClustered = trace.DeployClustered
	DeployGrid      = trace.DeployGrid
	DeployCorridor  = trace.DeployCorridor

	PolicyShortestDistance = wrsn.PolicyShortestDistance
	PolicyHopCount         = wrsn.PolicyHopCount
	PolicyEnergyAware      = wrsn.PolicyEnergyAware
)

// Telemetry re-exports: the campaign telemetry subsystem (see the
// internal obs package). Attach a probe via CampaignConfig.Probe,
// experiment WithProbe options, or NewCharger's WithProbe option.
type (
	// Probe is the telemetry hook every simulation layer accepts:
	// counters, gauges, histograms and a structured event stream.
	Probe = obs.Probe
	// Recorder is the in-memory recording Probe.
	Recorder = obs.Recorder
	// TelemetrySnapshot is a deterministic point-in-time Recorder view
	// with CSV/JSON export methods.
	TelemetrySnapshot = obs.Snapshot
	// TelemetryEvent is one structured timestamped event.
	TelemetryEvent = obs.Event
)

// NewRecorder returns an empty recording probe.
func NewRecorder() *Recorder { return obs.NewRecorder() }

// NopProbe returns the zero-overhead disabled probe (the default
// everywhere a probe is accepted).
func NopProbe() Probe { return obs.Nop() }

// Solver names for CampaignConfig.Solver.
const (
	SolverCSA           = campaign.SolverCSA
	SolverRandom        = campaign.SolverRandom
	SolverGreedyNearest = campaign.SolverGreedyNearest
	SolverDirect        = campaign.SolverDirect
)

// ScenarioOption customizes the scenario BuildScenario assembles before
// building it; the zero-option call reproduces the evaluation default.
type ScenarioOption func(*Scenario)

// WithDeployPattern selects the node-placement pattern (DeployUniform,
// DeployClustered, DeployGrid, DeployCorridor).
func WithDeployPattern(p Deployment) ScenarioOption {
	return func(s *Scenario) { s.Deploy.Pattern = p }
}

// WithCommRange overrides the radio range in meters (non-positive keeps
// the default).
func WithCommRange(r float64) ScenarioOption {
	return func(s *Scenario) { s.CommRange = r }
}

// WithRoutingPolicy selects the routing objective.
func WithRoutingPolicy(p RoutingPolicy) ScenarioOption {
	return func(s *Scenario) { s.Policy = p }
}

// BuildScenario constructs the standard evaluation scenario: n nodes
// uniformly deployed around a centered sink, fully connected, seeded
// reproducibly. Options adjust the scenario before building:
//
//	nw, _, err := wrsncsa.BuildScenario(42, 200,
//		wrsncsa.WithDeployPattern(wrsncsa.DeployClustered))
//
// The returned stream carries the scenario's remaining randomness
// budget.
func BuildScenario(seed uint64, n int, opts ...ScenarioOption) (*Network, *rng.Stream, error) {
	sc := trace.DefaultScenario(seed, n)
	for _, opt := range opts {
		opt(&sc)
	}
	return sc.Build()
}

// DefaultChargerParams returns the evaluation-default charger
// parameters — the starting point for WithChargerParams tweaks.
func DefaultChargerParams() ChargerParams { return mc.DefaultParams() }

// ChargerOption customizes NewCharger.
type ChargerOption func(*chargerOptions)

type chargerOptions struct {
	params mc.Params
	probe  Probe
}

// WithChargerParams replaces the default charger parameters (zero-valued
// fields still get defaults).
func WithChargerParams(p ChargerParams) ChargerOption {
	return func(o *chargerOptions) { o.params = p }
}

// WithProbe attaches a telemetry probe to the charger: travel distance
// and energy, radiated energy and tour resets accumulate into it.
func WithProbe(p Probe) ChargerOption {
	return func(o *chargerOptions) { o.probe = p }
}

// NewCharger parks a mobile charger at the network's sink,
// default-parameterized unless options say otherwise:
//
//	ch := wrsncsa.NewCharger(nw,
//		wrsncsa.WithChargerParams(wrsncsa.ChargerParams{SpeedMps: 8}),
//		wrsncsa.WithProbe(recorder))
func NewCharger(nw *Network, opts ...ChargerOption) *Charger {
	o := chargerOptions{params: mc.DefaultParams()}
	for _, opt := range opts {
		opt(&o)
	}
	ch := mc.New(nw.Sink(), o.params)
	if o.probe != nil {
		ch.Instrument(o.probe)
	}
	return ch
}

// RunOption adjusts one campaign run (Attack, Legit, LegitFleet).
type RunOption func(*runOptions)

type runOptions struct {
	snap  *Snapshot
	fleet int
}

// WithSnapshot runs the campaign on a fresh fork of snap instead of the
// network and charger arguments, which may then be nil. Forking is
// cheap (no placement, no routing convergence) and byte-identical to
// rebuilding the snapshot's scenario, so a single warm snapshot can
// back an entire seed sweep — including concurrent runs; forking is
// safe from multiple goroutines.
func WithSnapshot(snap *Snapshot) RunOption {
	return func(o *runOptions) { o.snap = snap }
}

// WithFleetSize sets how many chargers LegitFleet forks when running
// from a snapshot (default 1). Attack and Legit ignore it.
func WithFleetSize(k int) RunOption {
	return func(o *runOptions) { o.fleet = k }
}

// forkRun resolves the (nw, ch) pair a run executes on: the caller's
// arguments, or forks of the run's snapshot when WithSnapshot is set.
func (o *runOptions) forkRun(nw *Network, ch *Charger) (*Network, *Charger, error) {
	if o.snap == nil {
		return nw, ch, nil
	}
	fnw, fch, _, err := o.snap.Fork()
	if err != nil {
		return nil, nil, err
	}
	if fch == nil {
		fch = mc.New(fnw.Sink(), mc.DefaultParams())
	}
	return fnw, fch, nil
}

func applyRunOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Attack runs the full charging spoofing attack campaign on the
// network: TIDE planning, adaptive spoof execution, opportunistic cover
// service, live audits. See campaign.RunAttack. The campaign
// checkpoints ctx at every world-step and service boundary and returns
// ctx.Err() promptly once the context is canceled.
//
//	out, err := wrsncsa.Attack(ctx, nw, ch, wrsncsa.CampaignConfig{Seed: 42})
//
// With WithSnapshot, nw and ch may be nil; the run forks the snapshot.
func Attack(ctx context.Context, nw *Network, ch *Charger, cfg CampaignConfig, opts ...RunOption) (*Outcome, error) {
	o := applyRunOptions(opts)
	nw, ch, err := o.forkRun(nw, ch)
	if err != nil {
		return nil, err
	}
	return campaign.RunAttack(ctx, nw, ch, cfg)
}

// Legit runs the uncompromised on-demand charging baseline. See
// campaign.RunLegit. Context and options behave as in Attack.
func Legit(ctx context.Context, nw *Network, ch *Charger, cfg CampaignConfig, opts ...RunOption) (*Outcome, error) {
	o := applyRunOptions(opts)
	nw, ch, err := o.forkRun(nw, ch)
	if err != nil {
		return nil, err
	}
	return campaign.RunLegit(ctx, nw, ch, cfg)
}

// PlanOption customizes PlanTIDE.
type PlanOption func(*planOptions)

type planOptions struct {
	builder BuilderConfig
	polish  bool
}

// WithBuilderConfig replaces the default TIDE instance construction
// parameters (horizon, request threshold, cover cap, budget override).
func WithBuilderConfig(cfg BuilderConfig) PlanOption {
	return func(o *planOptions) { o.builder = cfg }
}

// WithPolish enables the 2-opt polishing pass on the CSA solution.
func WithPolish(polish bool) PlanOption {
	return func(o *planOptions) { o.polish = polish }
}

// PlanTIDE builds the TIDE instance for the network's current state and
// solves it with CSA, returning both:
//
//	in, res, err := wrsncsa.PlanTIDE(nw, ch,
//		wrsncsa.WithBuilderConfig(wrsncsa.BuilderConfig{MaxCovers: 10}))
func PlanTIDE(nw *Network, ch *Charger, opts ...PlanOption) (*Instance, PlanResult, error) {
	var o planOptions
	for _, opt := range opts {
		opt(&o)
	}
	in, err := attack.BuildInstance(nw, ch, o.builder)
	if err != nil {
		return nil, PlanResult{}, err
	}
	solve := attack.SolveCSA
	if o.polish {
		solve = attack.SolveCSAPolished
	}
	res, err := solve(in)
	if err != nil {
		return nil, PlanResult{}, err
	}
	return in, res, nil
}

// DetectorSuite returns the standard network-side detector set.
func DetectorSuite() []Detector { return detect.Suite() }

// ROCPoint is one detector operating point.
type ROCPoint = detect.ROCPoint

// ROC computes a detector's ROC curve from attack (positive) and
// legitimate (negative) score samples. See detect.ROC.
func ROC(positives, negatives []float64) ([]ROCPoint, error) {
	return detect.ROC(positives, negatives)
}

// AUC integrates a ROC curve. See detect.AUC.
func AUC(pts []ROCPoint) float64 { return detect.AUC(pts) }

// Testbed re-exports the software-in-the-loop TCP test bed.
type (
	// TestbedConfig parameterizes a test-bed run.
	TestbedConfig = testbed.RunConfig
	// TestbedReport is a test-bed outcome.
	TestbedReport = testbed.Report
	// TestbedNode describes one emulated node.
	TestbedNode = testbed.NodeSetup
)

// RunTestbed executes a complete TCP software-in-the-loop experiment.
func RunTestbed(cfg TestbedConfig) (*TestbedReport, error) {
	return testbed.Run(cfg)
}

// DefaultTestbedNodes returns the canonical 12-node test bed.
func DefaultTestbedNodes() []TestbedNode { return testbed.DefaultNodes() }

// DefenseConfig re-exports the countermeasure configuration (harvest
// verification, neighbor witnessing); set it on CampaignConfig.Defense.
type DefenseConfig = defense.Config

// Exposure is a countermeasure catch.
type Exposure = defense.Exposure

// FleetOutcome is a multi-charger run result.
type FleetOutcome = campaign.FleetOutcome

// Fault-injection re-exports (see the internal faults package): a
// deterministic, seed-driven fault plan — node hardware failures,
// charging-request loss, charger breakdowns, sink outages — set on
// CampaignConfig.Faults. Plans are single-use: build a fresh one per
// campaign run.
type (
	// FaultSpec parameterizes fault-plan generation.
	FaultSpec = faults.Spec
	// FaultPlan is a compiled, seed-deterministic fault schedule.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault transition.
	FaultEvent = faults.Event
	// FaultReport is a campaign's fault ledger: injected vs. survived
	// vs. fatal. Read it from Outcome.FaultReport().
	FaultReport = faults.Report
)

// DefaultFaultSpec returns the evaluation-default fault load for the
// horizon (non-positive horizonSec gets the default 14-day horizon).
// Scale it for harsher or gentler worlds:
//
//	spec := wrsncsa.DefaultFaultSpec(42, 0).Scale(2)
//	cfg.Faults = wrsncsa.NewFaultPlan(spec, nw.Len())
func DefaultFaultSpec(seed uint64, horizonSec float64) FaultSpec {
	return faults.DefaultSpec(seed, horizonSec)
}

// NewFaultPlan compiles a spec into a deterministic fault plan for a
// network of n nodes. The same spec and n always yield the same plan.
func NewFaultPlan(spec FaultSpec, n int) *FaultPlan { return faults.New(spec, n) }

// LegitFleet runs K honest chargers over the shared request queue. See
// campaign.RunLegitFleet. Context and options behave as in Attack; from
// a snapshot, WithFleetSize sets how many chargers are forked:
//
//	o, err := wrsncsa.LegitFleet(ctx, nil, nil, cfg,
//		wrsncsa.WithSnapshot(snap), wrsncsa.WithFleetSize(3))
func LegitFleet(ctx context.Context, nw *Network, chargers []*Charger, cfg CampaignConfig, opts ...RunOption) (*FleetOutcome, error) {
	o := applyRunOptions(opts)
	if o.snap != nil {
		fnw, ch, err := o.forkRun(nil, nil)
		if err != nil {
			return nil, err
		}
		nw = fnw
		k := o.fleet
		if k < 1 {
			k = 1
		}
		chargers = make([]*Charger, k)
		chargers[0] = ch
		for i := 1; i < k; i++ {
			chargers[i] = ch.Fork()
		}
	}
	return campaign.RunLegitFleet(ctx, nw, chargers, cfg)
}

// Snapshot re-exports (see the internal snapshot package): a versioned,
// deterministic serialization of a built world — deployment, batteries,
// converged routing, charger, remaining randomness — captured at the
// campaign barrier (before any event runs). Fork() peels off
// independent copies; Encode/Digest give canonical bytes.
type Snapshot = snapshot.Snapshot

// SnapshotVersion is the wire-format version DecodeSnapshot accepts.
const SnapshotVersion = snapshot.Version

// BuildSnapshot builds the standard evaluation scenario (as
// BuildScenario, same options) plus a default charger and freezes the
// result. One BuildSnapshot then N cheap Fork()s — via
// WithSnapshot(snap) on the run entry points — replaces N full
// scenario builds in a seed sweep.
func BuildSnapshot(seed uint64, n int, opts ...ScenarioOption) (*Snapshot, error) {
	sc := trace.DefaultScenario(seed, n)
	for _, opt := range opts {
		opt(&sc)
	}
	return snapshot.Build(sc, mc.DefaultParams())
}

// CaptureSnapshot freezes an already-built world: the scenario recipe,
// its network, an optional charger, and the scenario's remaining
// randomness stream (both returned by BuildScenario; ch and rest may be
// nil). The capture only reads its arguments.
func CaptureSnapshot(sc Scenario, nw *Network, ch *Charger, rest *rng.Stream) (*Snapshot, error) {
	return snapshot.Capture(sc, nw, ch, rest)
}

// DecodeSnapshot parses snapshot bytes produced by Snapshot.Encode,
// rejecting unknown wire versions. Decode → Fork → run is
// byte-identical to running from the originally captured snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return snapshot.Decode(data) }

// Job-spec re-exports (see the internal jobspec package): the
// serializable description of one campaign job, shared by the wrsncsad
// daemon, the CLIs and this library. The same JobSpec always produces
// the same result — in-process via RunJob or behind a daemon via the
// client package — because every piece of randomness derives from seeds
// carried in the spec.
type (
	// JobSpec is one complete campaign job: kind, scenario, campaign
	// knobs, fault load, fleet size.
	JobSpec = jobspec.Spec
	// JobCampaign is the serializable mirror of CampaignConfig used
	// inside a JobSpec (scheduler by name, faults as a spec).
	JobCampaign = jobspec.Campaign
	// JobResult is a run's result: Outcome or Fleet, with canonical
	// JSON and digest accessors.
	JobResult = jobspec.Result
)

// Job kinds for JobSpec.Kind.
const (
	JobKindAttack = jobspec.KindAttack
	JobKindLegit  = jobspec.KindLegit
	JobKindFleet  = jobspec.KindFleet
)

// DefaultJobSpec returns the evaluation-default legit job at the given
// scenario seed and node count; set Kind/Solver/etc. from there.
func DefaultJobSpec(seed uint64, n int) JobSpec { return jobspec.Default(seed, n) }

// RunJob executes a JobSpec in-process: build the scenario — or fork
// the spec's embedded snapshot, if JobSpec.WithSnapshot attached one —
// run the campaign, return the result. This is exactly the computation
// a wrsncsad daemon performs for the same spec — byte-identical
// digests. probe may be nil.
func RunJob(ctx context.Context, spec JobSpec, probe Probe) (*JobResult, error) {
	return jobspec.Run(ctx, spec, probe)
}

// TelemetryWindow is an incremental telemetry view: the deltas since the
// previous window cut from the same Recorder (counters as deltas, gauge
// levels, histograms when moved, the event tail). Cut one with
// Recorder.WindowSnapshot; the daemon's /stream endpoint serves these.
type TelemetryWindow = obs.Window
