package wrsncsa_test

// One benchmark per reconstructed table and figure (see DESIGN.md's
// experiment index). Each bench regenerates its experiment end to end —
// workload generation, simulation/planning, metric extraction — so
// `go test -bench=. -benchmem` re-derives the entire evaluation and
// reports its cost. The quick configuration keeps individual iterations
// tractable; `cmd/experiments` (without -quick) produces the full-scale
// numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	wrsncsa "github.com/reprolab/wrsn-csa"
	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/experiments"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func benchAttack(nw *wrsn.Network, ch *mc.Charger) (*campaign.Outcome, error) {
	return campaign.RunAttack(context.Background(), nw, ch, campaign.Config{Seed: 42})
}

var benchCfg = experiments.Config{Quick: true, Seeds: 1}

func benchExperiment(b *testing.B, run experiments.Runner) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := run(context.Background(), benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if out.Table.Rows() == 0 {
			b.Fatal("experiment produced an empty table")
		}
	}
}

// BenchmarkRectifierCurve regenerates R-Fig 1 (rectifier nonlinearity).
func BenchmarkRectifierCurve(b *testing.B) {
	benchExperiment(b, experiments.RunRectifierCurve)
}

// BenchmarkSuperpositionSweep regenerates R-Fig 2 (coherent superposition
// vs phase offset).
func BenchmarkSuperpositionSweep(b *testing.B) {
	benchExperiment(b, experiments.RunSuperpositionSweep)
}

// BenchmarkNullSteering regenerates R-Fig 3 (null depth vs distance and
// jitter, Monte Carlo).
func BenchmarkNullSteering(b *testing.B) {
	benchExperiment(b, experiments.RunNullSteering)
}

// BenchmarkExhaustionVsN regenerates R-Fig 4 (the headline: key-node
// exhaustion per solver vs network size, full campaigns).
func BenchmarkExhaustionVsN(b *testing.B) {
	benchExperiment(b, experiments.RunExhaustionVsN)
}

// BenchmarkUtilityVsBudget regenerates R-Fig 5 (planned cover utility vs
// charger budget).
func BenchmarkUtilityVsBudget(b *testing.B) {
	benchExperiment(b, experiments.RunUtilityVsBudget)
}

// BenchmarkDetectionROC regenerates R-Fig 6 (detector ROC curves from
// attack and legitimate campaign populations).
func BenchmarkDetectionROC(b *testing.B) {
	benchExperiment(b, experiments.RunDetectionROC)
}

// BenchmarkApproxRatio regenerates R-Fig 7 (CSA vs the exact Pareto-DP
// optimum on small instances).
func BenchmarkApproxRatio(b *testing.B) {
	benchExperiment(b, experiments.RunApproxRatio)
}

// BenchmarkLifetime regenerates R-Fig 8 (connectivity over time, attack
// vs legitimate service).
func BenchmarkLifetime(b *testing.B) {
	benchExperiment(b, experiments.RunLifetime)
}

// BenchmarkCSARuntime regenerates R-Fig 9 (planning runtime scaling).
func BenchmarkCSARuntime(b *testing.B) {
	benchExperiment(b, experiments.RunRuntime)
}

// BenchmarkHeadline regenerates R-Tab 1 (exhaustion and stealth across
// deployment patterns).
func BenchmarkHeadline(b *testing.B) {
	benchExperiment(b, experiments.RunHeadline)
}

// BenchmarkTestbed regenerates R-Tab 2 (the TCP software-in-the-loop test
// bed); each iteration runs real agents over loopback TCP for a fixed
// wall-clock window.
func BenchmarkTestbed(b *testing.B) {
	benchExperiment(b, experiments.RunTestbed)
}

// BenchmarkAblations regenerates R-Tab 3 (attack-ingredient ablations).
func BenchmarkAblations(b *testing.B) {
	benchExperiment(b, experiments.RunAblations)
}

// BenchmarkExperimentSweep measures the parallel engine's payoff on the
// campaign-heaviest figure (R-Fig 4): the same sweep at one worker, four
// workers, and one worker per CPU. The outputs are byte-identical (see
// the determinism tests); only wall-clock moves.
func BenchmarkExperimentSweep(b *testing.B) {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.NewConfig(
				experiments.WithQuick(true),
				experiments.WithSeeds(2),
				experiments.WithWorkers(workers),
			)
			for i := 0; i < b.N; i++ {
				out, err := experiments.RunExhaustionVsN(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if out.Table.Rows() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// Seed-sweep benchmarks: the cost of running the same 200-node scenario
// at sweepSeeds campaign seeds, the shape of every Monte-Carlo figure.
// The horizon is short (6 simulated hours) so per-seed simulation is
// comparable to scenario warm-up (placement + routing convergence) —
// the regime early-window and detection-threshold sweeps live in, and
// the one the snapshot subsystem exists for. BenchmarkSeedSweep rebuilds
// the world per seed; BenchmarkSeedSweepForked builds one snapshot and
// forks per seed. Outcomes are byte-identical (the golden fork fence);
// only wall-clock moves, and the gate keeps the gap from regressing.
const sweepSeeds = 8

var sweepCfgBase = wrsncsa.CampaignConfig{HorizonSec: 6 * 3600}

// BenchmarkSeedSweep is the rebuild baseline: every seed pays scenario
// construction again.
func BenchmarkSeedSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for s := 0; s < sweepSeeds; s++ {
			nw, _, err := wrsncsa.BuildScenario(42, 200)
			if err != nil {
				b.Fatal(err)
			}
			cfg := sweepCfgBase
			cfg.Seed = uint64(s)
			if _, err := wrsncsa.Legit(context.Background(), nw, wrsncsa.NewCharger(nw), cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSeedSweepForked pays warm-up once per sweep (the snapshot
// build is inside the timed region) and forks per seed.
func BenchmarkSeedSweepForked(b *testing.B) {
	for i := 0; i < b.N; i++ {
		snap, err := wrsncsa.BuildSnapshot(42, 200)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < sweepSeeds; s++ {
			cfg := sweepCfgBase
			cfg.Seed = uint64(s)
			if _, err := wrsncsa.Legit(context.Background(), nil, nil, cfg, wrsncsa.WithSnapshot(snap)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkProbeOverhead measures what telemetry costs a full attack
// campaign: the same 200-node run with no probe (the no-op default, the
// <2% overhead contract), and with a recording probe. Outcomes are
// byte-identical in all three cases — telemetry is observational only.
func BenchmarkProbeOverhead(b *testing.B) {
	variants := []struct {
		name  string
		probe func() obs.Probe
	}{
		{"off", func() obs.Probe { return nil }},
		{"nop", func() obs.Probe { return obs.Nop() }},
		{"recorder", func() obs.Probe { return obs.NewRecorder() }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw, _, err := trace.DefaultScenario(42, 200).Build()
				if err != nil {
					b.Fatal(err)
				}
				ch := mc.New(nw.Sink(), mc.DefaultParams())
				probe := v.probe()
				if probe != nil {
					ch.Instrument(probe)
				}
				b.StartTimer()
				cfg := campaign.Config{Seed: 42, Probe: probe}
				if _, err := campaign.RunAttack(context.Background(), nw, ch, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveCSA isolates the planner itself on 200- and 400-node
// scenarios — the micro-benchmark behind R-Fig 9's headline number, and
// the planner's row in the regression gate.
func BenchmarkSolveCSA(b *testing.B) {
	for _, n := range []int{200, 400} {
		b.Run(fmt.Sprintf("sites=%d", n), func(b *testing.B) {
			nw, _, err := trace.DefaultScenario(42, n).Build()
			if err != nil {
				b.Fatal(err)
			}
			ch := mc.New(nw.Sink(), mc.DefaultParams())
			in, err := attack.BuildInstance(nw, ch, attack.BuilderConfig{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := attack.SolveCSA(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullCampaign isolates one complete attack campaign (plan +
// 14-day execution) on a 200-node network.
func BenchmarkFullCampaign(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw, _, err := trace.DefaultScenario(42, 200).Build()
		if err != nil {
			b.Fatal(err)
		}
		ch := mc.New(nw.Sink(), mc.DefaultParams())
		b.StartTimer()
		if _, err := benchAttack(nw, ch); err != nil {
			b.Fatal(err)
		}
	}
}
