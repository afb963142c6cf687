package wrsncsa_test

// Telemetry contract tests at the public API level: a recording probe
// observes the campaign without perturbing it, and the functional
// options compose with the quickstart flow.

import (
	"context"
	"reflect"
	"testing"

	wrsncsa "github.com/reprolab/wrsn-csa"
)

// TestProbeOutcomeDeterminism is the subsystem's core promise: attaching
// a recording probe leaves the campaign Outcome deeply identical to the
// unobserved run, while the recorder itself fills up.
func TestProbeOutcomeDeterminism(t *testing.T) {
	runOnce := func(probe wrsncsa.Probe) *wrsncsa.Outcome {
		t.Helper()
		nw, _, err := wrsncsa.BuildScenario(42, 120)
		if err != nil {
			t.Fatal(err)
		}
		ch := wrsncsa.NewCharger(nw)
		if probe != nil {
			ch = wrsncsa.NewCharger(nw, wrsncsa.WithProbe(probe))
		}
		out, err := wrsncsa.Attack(context.Background(), nw, ch,
			wrsncsa.CampaignConfig{Seed: 42, Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	plain := runOnce(nil)
	rec := wrsncsa.NewRecorder()
	probed := runOnce(rec)
	if !reflect.DeepEqual(plain, probed) {
		t.Error("Outcome differs with a recording probe attached; telemetry must be strictly observational")
	}

	if n := rec.Counter("campaign.requests.issued"); n == 0 {
		t.Error("recorder saw no campaign.requests.issued")
	}
	if n := rec.Counter("charger.travel_m"); n == 0 {
		t.Error("recorder saw no charger travel")
	}
	if len(rec.Events()) == 0 {
		t.Error("recorder saw no events")
	}
	snap := rec.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Errorf("snapshot incomplete: %d counters, %d histograms",
			len(snap.Counters), len(snap.Histograms))
	}
}

// TestScenarioOptions checks the BuildScenario options change the built
// network the way their names promise.
func TestScenarioOptions(t *testing.T) {
	uniform, _, err := wrsncsa.BuildScenario(7, 100)
	if err != nil {
		t.Fatal(err)
	}
	grid, _, err := wrsncsa.BuildScenario(7, 100, wrsncsa.WithDeployPattern(wrsncsa.DeployGrid))
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Len() != grid.Len() {
		t.Errorf("node counts differ: uniform %d, grid %d", uniform.Len(), grid.Len())
	}
	same := true
	for i := range uniform.Len() {
		if id := wrsncsa.NodeID(i); uniform.Pos(id) != grid.Pos(id) {
			same = false
			break
		}
	}
	if same {
		t.Error("WithDeployPattern(DeployGrid) produced the uniform layout")
	}

	if _, _, err := wrsncsa.BuildScenario(7, 100,
		wrsncsa.WithCommRange(250),
		wrsncsa.WithRoutingPolicy(wrsncsa.PolicyEnergyAware),
	); err != nil {
		t.Fatalf("combined scenario options: %v", err)
	}
}

// TestChargerOptions checks WithChargerParams and WithProbe take effect.
func TestChargerOptions(t *testing.T) {
	nw, _, err := wrsncsa.BuildScenario(7, 80)
	if err != nil {
		t.Fatal(err)
	}
	params := wrsncsa.DefaultChargerParams()
	params.BudgetJ *= 2
	rec := wrsncsa.NewRecorder()
	ch := wrsncsa.NewCharger(nw, wrsncsa.WithChargerParams(params), wrsncsa.WithProbe(rec))
	if got := ch.Params().BudgetJ; got != params.BudgetJ {
		t.Errorf("charger budget %.0f J, want %.0f J", got, params.BudgetJ)
	}
	if _, err := wrsncsa.Legit(context.Background(), nw, ch, wrsncsa.CampaignConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if rec.Counter("charger.travel_m") == 0 {
		t.Error("WithProbe recorder saw no charger travel")
	}
}

// TestPlanOptions checks PlanTIDE's functional options.
func TestPlanOptions(t *testing.T) {
	nw, _, err := wrsncsa.BuildScenario(42, 120)
	if err != nil {
		t.Fatal(err)
	}
	ch := wrsncsa.NewCharger(nw)
	baseIn, base, err := wrsncsa.PlanTIDE(nw, ch)
	if err != nil {
		t.Fatal(err)
	}
	shortIn, _, err := wrsncsa.PlanTIDE(nw, ch,
		wrsncsa.WithBuilderConfig(wrsncsa.BuilderConfig{HorizonSec: 4 * 86400}))
	if err != nil {
		t.Fatal(err)
	}
	if len(shortIn.Sites) >= len(baseIn.Sites) {
		t.Errorf("4-day horizon yields %d sites, 14-day default %d; shorter horizon should forecast fewer cover requests",
			len(shortIn.Sites), len(baseIn.Sites))
	}
	if _, polished, err := wrsncsa.PlanTIDE(nw, ch, wrsncsa.WithPolish(true)); err != nil {
		t.Fatal(err)
	} else if polished.Plan.UtilityJ < base.Plan.UtilityJ {
		t.Errorf("polished utility %.0f below unpolished %.0f", polished.Plan.UtilityJ, base.Plan.UtilityJ)
	}
}

// TestContextCancellation checks the ctx-first entry points honor an
// already-canceled context.
func TestContextCancellation(t *testing.T) {
	nw, _, err := wrsncsa.BuildScenario(42, 80)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := wrsncsa.Legit(ctx, nw, wrsncsa.NewCharger(nw),
		wrsncsa.CampaignConfig{Seed: 42}); err == nil {
		t.Error("canceled context accepted")
	}
}
