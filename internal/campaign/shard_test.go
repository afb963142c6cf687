package campaign

// Sharded-stepping determinism harness: the world's Shards knob must be
// purely a wall-clock lever — the Outcome digest at every shard count
// must equal the sequential (Shards=1) digest bit for bit, for legit
// service, the full attack, and fault plans with request loss (whose RNG
// draw order is the most fragile thing the sharded scan preserves).
// These tests run under -race in CI (the verify-scale target), so they
// double as the data-race fence for the parallel per-tick fan-out.

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// shardCounts covers sequential, small, and deliberately excessive
// partitions (32 shards of a 150-node field stresses tiny shards).
var shardCounts = []int{1, 2, 4, 8, 32}

func digestAtShards(t *testing.T, shards int, attack bool, withFaults bool) string {
	t.Helper()
	const seed, n = 42, 150
	nw, _, err := trace.DefaultScenario(seed, n).Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	cfg := Config{
		Seed:           seed,
		Shards:         shards,
		SampleEverySec: 6 * 3600, // exercise the sharded sample tally
	}
	if withFaults {
		spec := faults.DefaultSpec(seed, 0)
		spec.HorizonSec = 14 * 24 * 3600
		spec.NodeFailures = 6
		spec.RequestLossProb = 0.2 // heavy loss pins the draw order
		cfg.Faults = faults.New(spec, n)
	}
	var o any
	if attack {
		o, err = RunAttack(context.Background(), nw, ch, cfg)
	} else {
		o, err = RunLegit(context.Background(), nw, ch, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	return digestOf(t, o)
}

// TestShardedSteppingDigestInvariant pins byte-identical outcomes across
// shard counts for the three most state-entangled run flavors.
func TestShardedSteppingDigestInvariant(t *testing.T) {
	flavors := []struct {
		name       string
		attack     bool
		withFaults bool
	}{
		{"legit", false, false},
		{"attack", true, false},
		{"attack-faults", true, true},
	}
	for _, f := range flavors {
		t.Run(f.name, func(t *testing.T) {
			want := digestAtShards(t, 1, f.attack, f.withFaults)
			for _, k := range shardCounts[1:] {
				if got := digestAtShards(t, k, f.attack, f.withFaults); got != want {
					t.Fatalf("shards=%d: digest %s, want %s (sequential)", k, got, want)
				}
			}
		})
	}
}

// TestShardedScaleSmoke runs a 10k-node legit campaign on four explicit
// shards over a short horizon — the large-N configuration the scale
// work exists for. It asserts completion and that the run produced real
// dynamics (deaths and requests), not silence.
func TestShardedScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node campaign is too heavy for -short")
	}
	const seed, n = 7, 10_000
	nw, _, err := trace.DefaultScenario(seed, n).Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	o, err := RunLegit(context.Background(), nw, ch, Config{
		Seed:       seed,
		Shards:     4,
		HorizonSec: 2 * 24 * 3600,
		PollSec:    1800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.RequestsIssued == 0 {
		t.Fatal("10k-node run issued no charging requests")
	}
}
