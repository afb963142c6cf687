package campaign

// Golden determinism harness: every representative campaign flavor —
// legit service, window-aware and window-unaware attacks, the caught
// path, progressive recruiting, defenses, lifetime sampling, and the
// fleet — is run at pinned seeds and its Outcome reduced to a SHA-256
// digest of a canonical JSON form. The digests in
// testdata/outcome_digests.json were recorded from the pre-refactor
// monolithic runner; any behavioral drift in a later decomposition of
// the campaign shows up here as a digest mismatch long before a
// statistical test would notice.
//
// To re-pin after an INTENTIONAL behavior change, run:
//
//	WRSN_REGEN_GOLDEN=1 go test ./internal/campaign -run TestGoldenOutcomeDigests
//
// and commit the rewritten testdata file together with an explanation of
// why byte-identical outcomes could not be preserved.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

const goldenPath = "testdata/outcome_digests.json"

// digestOf reduces any outcome-like value to a hex SHA-256 over its
// canonical JSON form via the shared digest package — the same
// canonicalization the campaign service reports to clients, so a daemon
// digest is directly comparable against these goldens.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	d, err := digest.Sum(v)
	if err != nil {
		t.Fatalf("digest outcome: %v", err)
	}
	return d
}

// caseKind selects the campaign entry point a golden case exercises.
type caseKind int

const (
	kindLegit caseKind = iota
	kindAttack
	kindFleet
)

// goldenCase is one pinned campaign configuration in data form — enough
// for the digest harness to run it and for the checkpoint fence to run,
// interrupt, and resume it. probe is attached to both the chargers and
// the campaign when non-nil; the digest must not move either way —
// telemetry is strictly observational.
type goldenCase struct {
	name   string
	kind   caseKind
	seed   uint64
	n      int
	fleetK int
	// spec, when non-nil, compiles a fresh fault plan per run (plans are
	// single-use, so regen, probed re-runs, and resumes each build one).
	spec   *faults.Spec
	mutate func(*Config)
}

// scenario is the case's pinned world recipe; it also rides along as
// checkpoint provenance.
func (gc goldenCase) scenario() trace.Scenario {
	return trace.DefaultScenario(gc.seed, gc.n)
}

// config assembles the run Config, building a fresh fault plan when the
// case has one.
func (gc goldenCase) config(probe obs.Probe) Config {
	cfg := Config{Seed: gc.seed, Probe: probe}
	if gc.spec != nil {
		cfg.Faults = faults.New(*gc.spec, gc.n)
	}
	if gc.mutate != nil {
		gc.mutate(&cfg)
	}
	return cfg
}

// runPlan executes the case once, optionally with a checkpoint plan
// armed, and returns the raw outcome and error — the checkpoint fence
// needs ErrStopped back, so nothing is t.Fatal'd here.
func (gc goldenCase) runPlan(t *testing.T, probe obs.Probe, plan *CheckpointPlan) (any, error) {
	t.Helper()
	nw, _, err := gc.scenario().Build()
	if err != nil {
		t.Fatal(err)
	}
	cfg := gc.config(probe)
	if plan != nil {
		plan.Scenario = gc.scenario()
		cfg.Checkpoint = plan
	}
	ctx := context.Background()
	if gc.kind == kindFleet {
		chargers := make([]*mc.Charger, gc.fleetK)
		for i := range chargers {
			chargers[i] = mc.New(nw.Sink(), mc.DefaultParams())
			if probe != nil {
				chargers[i].Instrument(probe)
			}
		}
		o, err := RunLegitFleet(ctx, nw, chargers, cfg)
		if o == nil {
			return nil, err // a typed nil inside `any` would defeat == nil checks
		}
		return o, err
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	if probe != nil {
		ch.Instrument(probe)
	}
	var o *Outcome
	if gc.kind == kindLegit {
		o, err = RunLegit(ctx, nw, ch, cfg)
	} else {
		o, err = RunAttack(ctx, nw, ch, cfg)
	}
	if o == nil {
		return nil, err
	}
	return o, err
}

// run executes the case once and fails the test on error.
func (gc goldenCase) run(t *testing.T, probe obs.Probe) any {
	t.Helper()
	o, err := gc.runPlan(t, probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func attackCase(seed uint64, n int, mutate func(*Config)) goldenCase {
	return goldenCase{kind: kindAttack, seed: seed, n: n, mutate: mutate}
}

func legitCase(seed uint64, n int, mutate func(*Config)) goldenCase {
	return goldenCase{kind: kindLegit, seed: seed, n: n, mutate: mutate}
}

func faultCase(seed uint64, n int, spec faults.Spec) goldenCase {
	return goldenCase{kind: kindAttack, seed: seed, n: n, spec: &spec}
}

func fleetCase(seed uint64, n, k int) goldenCase {
	return goldenCase{kind: kindFleet, seed: seed, n: n, fleetK: k}
}

// goldenCases is the pinned behavioral surface: three seeds per solver
// family per the acceptance bar, plus one case for every special code
// path (impoundment + honest replacement, progressive recruiting,
// countermeasures, lifetime sampling, the no-fill ablation, fleet).
func goldenCases() []goldenCase {
	named := func(name string, gc goldenCase) goldenCase {
		gc.name = name
		return gc
	}
	cases := []goldenCase{}
	for _, seed := range []uint64{42, 1000, 8919} {
		seed := seed
		cases = append(cases,
			named(fmt.Sprintf("legit/seed%d", seed), legitCase(seed, 120, nil)),
			named(fmt.Sprintf("csa/seed%d", seed), attackCase(seed, 120, nil)),
			named(fmt.Sprintf("greedy/seed%d", seed), attackCase(seed, 120, func(c *Config) { c.Solver = SolverGreedyNearest })),
		)
	}
	cases = append(cases,
		named("random/seed42", attackCase(42, 120, func(c *Config) { c.Solver = SolverRandom })),
		named("polished/seed42", attackCase(42, 120, func(c *Config) { c.Solver = SolverCSAPolished })),
		named("direct-nofill/seed42", attackCase(42, 120, func(c *Config) { c.Solver = SolverDirect; c.NoFill = true })),
		named("progressive/seed42", attackCase(42, 150, func(c *Config) { c.Progressive = true })),
		named("defense-verify/seed100", attackCase(100, 120, func(c *Config) { c.Defense = defense.Config{VerifyProb: 0.5} })),
		named("defense-witness/seed42", attackCase(42, 120, func(c *Config) { c.Defense = defense.Config{WitnessDutyCycle: 1} })),
		named("sampled/seed42", attackCase(42, 100, func(c *Config) { c.SampleEverySec = 6 * 3600 })),
		named("legit-edf/seed42", legitCase(42, 120, func(c *Config) { c.Scheduler = "EDF" })),
		named("fleet2/seed42", fleetCase(42, 150, 2)),
		named("fleet3/seed11", fleetCase(11, 150, 3)),
		// Fault-injection flavors, one per fault family, pinned at the
		// default horizon. Each isolates its family so a digest drift
		// points at the responsible mechanism.
		named("faults-node/seed42", faultCase(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, NodeFailures: 5})),
		named("faults-loss/seed42", faultCase(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, RequestLossProb: 0.3})),
		named("faults-breakdown/seed42", faultCase(42, 120, faults.Spec{
			Seed: 42, HorizonSec: attack.DefaultHorizonSec, ChargerBreakdowns: 3})),
	)
	return cases
}

func loadGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (%v); regenerate with WRSN_REGEN_GOLDEN=1", err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	return m
}

// TestGoldenOutcomeDigests is the refactor safety net: Outcomes at every
// pinned seed must be byte-identical to the recorded pre-refactor values.
func TestGoldenOutcomeDigests(t *testing.T) {
	regen := os.Getenv("WRSN_REGEN_GOLDEN") != ""
	var want map[string]string
	if !regen {
		want = loadGolden(t)
	}
	got := make(map[string]string)
	for _, gc := range goldenCases() {
		gc := gc
		t.Run(gc.name, func(t *testing.T) {
			d := digestOf(t, gc.run(t, nil))
			got[gc.name] = d
			if regen {
				return
			}
			exp, ok := want[gc.name]
			if !ok {
				t.Fatalf("no pinned digest for %q; regenerate goldens", gc.name)
			}
			if d != exp {
				t.Errorf("outcome digest drifted:\n got %s\nwant %s\nthe campaign's behavior changed at this seed", d, exp)
			}
		})
	}
	if regen {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("pinned %d digests to %s", len(got), goldenPath)
	}
}

// TestGoldenProbeInvariance re-runs representative cases with a recording
// probe attached everywhere a probe can attach: the digests must match
// the unprobed goldens bit for bit.
func TestGoldenProbeInvariance(t *testing.T) {
	want := loadGolden(t)
	for _, name := range []string{"legit/seed42", "csa/seed42", "greedy/seed42", "fleet2/seed42"} {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, gc := range goldenCases() {
				if gc.name != name {
					continue
				}
				rec := obs.NewRecorder()
				d := digestOf(t, gc.run(t, rec))
				if exp := want[name]; d != exp {
					t.Errorf("probed outcome digest %s != unprobed golden %s; telemetry perturbed the run", d, exp)
				}
				if len(rec.Snapshot().Counters) == 0 {
					t.Error("recorder stayed empty; probe was not attached")
				}
				return
			}
			t.Fatalf("case %q not found", name)
		})
	}
}
