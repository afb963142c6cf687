package campaign

import (
	"context"
	"fmt"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// BenchmarkCampaignRun exercises the hot path of a full campaign — the
// event-hosted world advance plus the policy serve loop — for both the
// honest baseline and the window-aware attack. Network construction is
// excluded from the timed region (runs mutate node state, so each
// iteration needs a fresh build).
func BenchmarkCampaignRun(b *testing.B) {
	bench := func(attack bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nw, _, err := trace.DefaultScenario(42, 120).Build()
				if err != nil {
					b.Fatal(err)
				}
				ch := mc.New(nw.Sink(), mc.DefaultParams())
				cfg := Config{Seed: 42}
				b.StartTimer()
				if attack {
					_, err = RunAttack(context.Background(), nw, ch, cfg)
				} else {
					_, err = RunLegit(context.Background(), nw, ch, cfg)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("legit", bench(false))
	b.Run("attack", bench(true))
	// large10k is the scale gate: a death-heavy 10k-node service run.
	// Batteries start low enough that a steady stream of nodes dies over
	// the horizon, so the per-death routing recompute — the cost the
	// incremental shortest-path-tree work targets — dominates the run.
	b.Run("large10k", func(b *testing.B) { benchLargeCampaign(b, 10_000, false) })
	// The same run with incremental routing maintenance switched off —
	// the pre-refactor full-Dijkstra-per-death cost, kept on the gate so
	// the incremental speedup stays measured, not remembered.
	b.Run("large10k-fullrebuild", func(b *testing.B) { benchLargeCampaign(b, 10_000, true) })
}

// benchLargeCampaign runs one death-heavy legit campaign per iteration at
// the given network size (build excluded from the timed region) and
// reports the death count so the "death-heavy" premise stays observable
// in the bench output.
func benchLargeCampaign(b *testing.B, n int, fullRebuild bool) {
	b.ReportAllocs()
	var deaths int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sc := trace.DefaultScenario(42, n)
		sc.Deploy.InitialFracMin, sc.Deploy.InitialFracMax = 0.12, 0.5
		nw, _, err := sc.Build()
		if err != nil {
			b.Fatal(err)
		}
		nw.SetIncrementalRouting(!fullRebuild)
		ch := mc.New(nw.Sink(), mc.DefaultParams())
		cfg := Config{Seed: 42, HorizonSec: 2 * 24 * 3600, PollSec: 900}
		b.StartTimer()
		o, err := RunLegit(context.Background(), nw, ch, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		deaths += o.DeadTotal
		b.StartTimer()
	}
	b.ReportMetric(float64(deaths)/float64(b.N), "deaths/op")
}

// BenchmarkCheckpointCapture measures one live-checkpoint capture — the
// full barrier path a checkpointing daemon pays per interval: policy
// phase capture, world/ledger/RNG state reads, and snapshot assembly —
// at the evaluation scale and the 10k scale gate. Capture cost bounds
// how aggressive -checkpoint-every can be, so it gates in CI.
func BenchmarkCheckpointCapture(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sc := trace.DefaultScenario(42, n)
			nw, _, err := sc.Build()
			if err != nil {
				b.Fatal(err)
			}
			ch := mc.New(nw.Sink(), mc.DefaultParams())
			cfg := Config{Seed: 42}
			sched, err := cfg.prepare()
			if err != nil {
				b.Fatal(err)
			}
			env, _, _ := layers(context.Background(), nw, ch, cfg, sched)
			armCheckpoints(&CheckpointPlan{
				Scenario: sc,
				Sink:     func(*snapshot.Snapshot) error { return nil },
			}, env, policy.NewLegit(), nw.KeyNodes())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.Checkpoint(policy.Barrier{Stage: policy.StageLoop}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCampaignScale100k is the headroom probe at two further orders
// of magnitude past the evaluation sizes. Deliberately named so the CI
// bench gate's pattern does not match it: at this size run-to-run noise
// on shared runners would make a 15% regression gate flap.
func BenchmarkCampaignScale100k(b *testing.B) {
	benchLargeCampaign(b, 100_000, false)
}
