package campaign

// Snapshot fork fence: every pinned golden case re-run on a world forked
// from a snapshot — and on a world forked from an encoded-then-decoded
// snapshot — must reproduce the recorded digest byte for byte. This is
// the correctness contract that lets seed sweeps replace N scenario
// builds with one build plus N forks: if forking (or the wire format)
// perturbed any observable state, the drift would land here, named
// after the responsible campaign flavor.

import (
	"context"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// forkSpec is one golden case expressed as data rather than a closure,
// so the same case can run on any world source (direct build in
// golden_test.go, snapshot forks here).
type forkSpec struct {
	name   string
	seed   uint64
	n      int
	kind   string // "attack", "legit", "fleet"
	fleet  int
	mutate func(*Config)
	faults *faults.Spec
}

// forkSpecs mirrors goldenCases one for one;
// TestForkSpecsCoverAllGoldenCases enforces the correspondence.
func forkSpecs() []forkSpec {
	specs := []forkSpec{}
	for _, seed := range []uint64{42, 1000, 8919} {
		specs = append(specs,
			forkSpec{name: nameOf("legit/seed", seed), seed: seed, n: 120, kind: "legit"},
			forkSpec{name: nameOf("csa/seed", seed), seed: seed, n: 120, kind: "attack"},
			forkSpec{name: nameOf("greedy/seed", seed), seed: seed, n: 120, kind: "attack",
				mutate: func(c *Config) { c.Solver = SolverGreedyNearest }},
		)
	}
	specs = append(specs,
		forkSpec{name: "random/seed42", seed: 42, n: 120, kind: "attack",
			mutate: func(c *Config) { c.Solver = SolverRandom }},
		forkSpec{name: "polished/seed42", seed: 42, n: 120, kind: "attack",
			mutate: func(c *Config) { c.Solver = SolverCSAPolished }},
		forkSpec{name: "direct-nofill/seed42", seed: 42, n: 120, kind: "attack",
			mutate: func(c *Config) { c.Solver = SolverDirect; c.NoFill = true }},
		forkSpec{name: "progressive/seed42", seed: 42, n: 150, kind: "attack",
			mutate: func(c *Config) { c.Progressive = true }},
		forkSpec{name: "defense-verify/seed100", seed: 100, n: 120, kind: "attack",
			mutate: func(c *Config) { c.Defense = defense.Config{VerifyProb: 0.5} }},
		forkSpec{name: "defense-witness/seed42", seed: 42, n: 120, kind: "attack",
			mutate: func(c *Config) { c.Defense = defense.Config{WitnessDutyCycle: 1} }},
		forkSpec{name: "sampled/seed42", seed: 42, n: 100, kind: "attack",
			mutate: func(c *Config) { c.SampleEverySec = 6 * 3600 }},
		forkSpec{name: "legit-edf/seed42", seed: 42, n: 120, kind: "legit",
			mutate: func(c *Config) { c.Scheduler = "EDF" }},
		forkSpec{name: "fleet2/seed42", seed: 42, n: 150, kind: "fleet", fleet: 2},
		forkSpec{name: "fleet3/seed11", seed: 11, n: 150, kind: "fleet", fleet: 3},
		forkSpec{name: "faults-node/seed42", seed: 42, n: 120, kind: "attack",
			faults: &faults.Spec{Seed: 42, HorizonSec: attack.DefaultHorizonSec, NodeFailures: 5}},
		forkSpec{name: "faults-loss/seed42", seed: 42, n: 120, kind: "attack",
			faults: &faults.Spec{Seed: 42, HorizonSec: attack.DefaultHorizonSec, RequestLossProb: 0.3}},
		forkSpec{name: "faults-breakdown/seed42", seed: 42, n: 120, kind: "attack",
			faults: &faults.Spec{Seed: 42, HorizonSec: attack.DefaultHorizonSec, ChargerBreakdowns: 3}},
	)
	return specs
}

func nameOf(prefix string, seed uint64) string {
	switch seed {
	case 42:
		return prefix + "42"
	case 1000:
		return prefix + "1000"
	case 8919:
		return prefix + "8919"
	}
	panic("unpinned seed")
}

// runForked executes one spec on a fork of snap and returns the outcome.
func runForked(t *testing.T, snap *snapshot.Snapshot, fs forkSpec) any {
	t.Helper()
	nw, ch, _, err := snap.Fork()
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: fs.seed}
	if fs.mutate != nil {
		fs.mutate(&cfg)
	}
	if fs.faults != nil {
		cfg.Faults = faults.New(*fs.faults, nw.Len())
	}
	switch fs.kind {
	case "legit":
		o, err := RunLegit(context.Background(), nw, ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	case "fleet":
		chargers := make([]*mc.Charger, fs.fleet)
		chargers[0] = ch
		for i := 1; i < fs.fleet; i++ {
			chargers[i] = ch.Fork()
		}
		o, err := RunLegitFleet(context.Background(), nw, chargers, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	default:
		o, err := RunAttack(context.Background(), nw, ch, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
}

// forkWorlds caches one snapshot per distinct scenario so the suite pays
// each scenario build once — exactly the economics forking exists for.
func forkWorlds(t *testing.T, decode bool) func(seed uint64, n int) *snapshot.Snapshot {
	t.Helper()
	cache := map[trace.Scenario]*snapshot.Snapshot{}
	return func(seed uint64, n int) *snapshot.Snapshot {
		sc := trace.DefaultScenario(seed, n)
		if s, ok := cache[sc]; ok {
			return s
		}
		s, err := snapshot.Build(sc, mc.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if decode {
			b, err := s.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if s, err = snapshot.Decode(b); err != nil {
				t.Fatal(err)
			}
		}
		cache[sc] = s
		return s
	}
}

// TestGoldenForkedDigests re-runs every pinned golden case on a forked
// world: the digests must match the direct-build goldens bit for bit.
func TestGoldenForkedDigests(t *testing.T) {
	want := loadGolden(t)
	snapFor := forkWorlds(t, false)
	for _, fs := range forkSpecs() {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			d := digestOf(t, runForked(t, snapFor(fs.seed, fs.n), fs))
			if exp := want[fs.name]; d != exp {
				t.Errorf("forked digest %s != golden %s; forking perturbed the world", d, exp)
			}
		})
	}
}

// TestGoldenDecodedForkDigests is the wire-format half of the fence: the
// snapshot crosses Encode→Decode before forking, so any lossy or
// order-unstable field in the serialization breaks the digest.
func TestGoldenDecodedForkDigests(t *testing.T) {
	want := loadGolden(t)
	snapFor := forkWorlds(t, true)
	for _, fs := range forkSpecs() {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			d := digestOf(t, runForked(t, snapFor(fs.seed, fs.n), fs))
			if exp := want[fs.name]; d != exp {
				t.Errorf("decoded-fork digest %s != golden %s; the wire format lost state", d, exp)
			}
		})
	}
}

// TestForkSpecsCoverAllGoldenCases pins the mirror: every golden case
// has a fork spec of the same name, and nothing extra.
func TestForkSpecsCoverAllGoldenCases(t *testing.T) {
	golden := map[string]bool{}
	for _, gc := range goldenCases() {
		golden[gc.name] = true
	}
	seen := map[string]bool{}
	for _, fs := range forkSpecs() {
		if !golden[fs.name] {
			t.Errorf("fork spec %q has no golden case", fs.name)
		}
		if seen[fs.name] {
			t.Errorf("duplicate fork spec %q", fs.name)
		}
		seen[fs.name] = true
	}
	for name := range golden {
		if !seen[name] {
			t.Errorf("golden case %q has no fork spec; the fork fence misses it", name)
		}
	}
}
