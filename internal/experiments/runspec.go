package experiments

import (
	"context"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// runSpec is the chokepoint every campaign-backed sweep job goes
// through: one serializable jobspec.Spec in, one Result out. With a
// Dispatcher configured the spec ships to a worker process — carrying
// the forge's cached world snapshot, so remote workers skip placement
// and routing convergence exactly like local forks do. Without one it
// runs in-process through jobspec.RunOn on the forge's forked world.
// Both paths produce byte-identical outcomes: every piece of randomness
// derives from seeds inside the spec, and fork ≡ rebuild is pinned by
// the snapshot golden fence.
func runSpec(ctx context.Context, cfg Config, spec jobspec.Spec) (*jobspec.Result, error) {
	if cfg.Dispatch != nil {
		snap, err := forge.encoded(spec.Scenario)
		if err != nil {
			return nil, err
		}
		spec.Snapshot = snap
		return cfg.Dispatch(ctx, spec)
	}
	return runLocal(ctx, cfg, spec)
}

// runLocal runs the spec in this process, through jobspec.RunOn on a
// fork of the forge's world. R-Fig 14 calls it directly: it reads each
// run's fault report, which is unexported on the Outcome and so never
// crosses the worker wire.
func runLocal(ctx context.Context, cfg Config, spec jobspec.Spec) (*jobspec.Result, error) {
	nw, ch, err := forge.fork(spec.Scenario)
	if err != nil {
		return nil, err
	}
	return jobspec.RunOn(ctx, spec, nw, ch, jobspec.RunOptions{Probe: cfg.Probe})
}

// runOutcomeSpec runs a single-charger spec and unwraps the Outcome.
func runOutcomeSpec(ctx context.Context, cfg Config, spec jobspec.Spec) (*campaign.Outcome, error) {
	r, err := runSpec(ctx, cfg, spec)
	if err != nil {
		return nil, err
	}
	return r.Outcome, nil
}

// runAttackOnScenario runs an attack campaign on an explicit scenario.
// The campaign knobs ride in wire form (jobspec.Campaign) so the same
// call serves the in-process pool and the distributed dispatcher.
func runAttackOnScenario(ctx context.Context, cfg Config, sc trace.Scenario, cc jobspec.Campaign) (*campaign.Outcome, error) {
	return runOutcomeSpec(ctx, cfg, jobspec.Spec{Kind: jobspec.KindAttack, Scenario: sc, Campaign: cc})
}

// runLegitOnScenario runs the legitimate baseline on an explicit
// scenario.
func runLegitOnScenario(ctx context.Context, cfg Config, sc trace.Scenario, cc jobspec.Campaign) (*campaign.Outcome, error) {
	return runOutcomeSpec(ctx, cfg, jobspec.Spec{Kind: jobspec.KindLegit, Scenario: sc, Campaign: cc})
}

// runOneAttack runs an attack campaign on the (seed, n) baseline world.
// The campaign seed follows the world seed, as everywhere in the
// evaluation.
func runOneAttack(ctx context.Context, cfg Config, seed uint64, n int, cc jobspec.Campaign) (*campaign.Outcome, error) {
	cc.Seed = seed
	return runAttackOnScenario(ctx, cfg, trace.DefaultScenario(seed, n), cc)
}

// runOneLegit runs the legitimate baseline on the (seed, n) baseline
// world.
func runOneLegit(ctx context.Context, cfg Config, seed uint64, n int, cc jobspec.Campaign) (*campaign.Outcome, error) {
	cc.Seed = seed
	return runLegitOnScenario(ctx, cfg, trace.DefaultScenario(seed, n), cc)
}

// runOneFleet runs the legitimate multi-charger fleet on the (seed, n)
// baseline world with k chargers parked at the sink.
func runOneFleet(ctx context.Context, cfg Config, seed uint64, n, k int, cc jobspec.Campaign) (*campaign.FleetOutcome, error) {
	cc.Seed = seed
	r, err := runSpec(ctx, cfg, jobspec.Spec{
		Kind:     jobspec.KindFleet,
		Scenario: trace.DefaultScenario(seed, n),
		Campaign: cc,
		Chargers: k,
	})
	if err != nil {
		return nil, err
	}
	return r.Fleet, nil
}
