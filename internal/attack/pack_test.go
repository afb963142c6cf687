package attack

import (
	"fmt"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// packCoversExhaustive is the reference packer: every round checks every
// unused cover site at every route position and keeps the first strict
// best ratio, in site-then-position order. packCovers must return the
// identical route.
func packCoversExhaustive(in *Instance, route []int) []int {
	used := make(map[int]bool, len(route))
	for _, idx := range route {
		used[idx] = true
	}
	rs := newRouteState(in)
	for {
		if !rs.Recompute(route) {
			return route
		}
		bestIdx, bestPos, bestRatio := -1, 0, 0.0
		for idx := range in.Sites {
			s := &in.Sites[idx]
			if s.Mandatory || used[idx] || s.UtilJ <= 0 {
				continue
			}
			for pos := 0; pos <= len(route); pos++ {
				cost, ok := rs.CheckInsert(pos, idx)
				if !ok {
					continue
				}
				if cost <= 0 {
					cost = 1e-9
				}
				ratio := s.UtilJ / cost
				if ratio > bestRatio {
					bestIdx, bestPos, bestRatio = idx, pos, ratio
				}
			}
		}
		if bestIdx < 0 {
			return route
		}
		route = insertAt(route, bestPos, bestIdx)
		used[bestIdx] = true
	}
}

// checkPackMatches runs the polished CSA pipeline once on each packer
// and requires every pack call to return the identical route, and the
// final plans to be identical.
func checkPackMatches(t *testing.T, name string, in *Instance) {
	t.Helper()
	if in.Validate() != nil {
		return
	}
	solve := func(pack packer) (Result, [][]int, error) {
		var packs [][]int
		res, err := solveCSAPolished(in, func(in *Instance, route []int) []int {
			out := pack(in, route)
			packs = append(packs, slices.Clone(out))
			return out
		})
		return res, packs, err
	}
	gotRes, gotPacks, gotErr := solve(packCovers)
	wantRes, wantPacks, wantErr := solve(packCoversExhaustive)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: errors differ: %v vs exhaustive %v", name, gotErr, wantErr)
	}
	for i := range max(len(gotPacks), len(wantPacks)) {
		if i >= len(gotPacks) || i >= len(wantPacks) || !slices.Equal(gotPacks[i], wantPacks[i]) {
			t.Fatalf("%s: pack call %d returned %v, exhaustive %v", name, i, gotPacks, wantPacks)
		}
	}
	if gotErr != nil {
		return
	}
	if gotRes.Solver != wantRes.Solver ||
		!slices.Equal(gotRes.Plan.Order, wantRes.Plan.Order) ||
		!slices.Equal(gotRes.SkippedTargets, wantRes.SkippedTargets) ||
		gotRes.Plan.UtilityJ != wantRes.Plan.UtilityJ ||
		gotRes.Plan.EnergyJ != wantRes.Plan.EnergyJ {
		t.Fatalf("%s: plan %s %v (U=%v E=%v), exhaustive %s %v (U=%v E=%v)", name,
			gotRes.Solver, gotRes.Plan.Order, gotRes.Plan.UtilityJ, gotRes.Plan.EnergyJ,
			wantRes.Solver, wantRes.Plan.Order, wantRes.Plan.UtilityJ, wantRes.Plan.EnergyJ)
	}
}

// TestPackCoversMatchesExhaustive fences the incremental packer against
// the exhaustive scan, on random instances shaped to stress ties and
// feasibility edges and on builder instances from deployed scenarios.
func TestPackCoversMatchesExhaustive(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		r := rng.New(15).Split("pack-differential")
		for trial := 0; trial < 600; trial++ {
			in := randomTestInstance(r, 8+trial%40)
			for i := range in.Sites {
				if r.Uniform(0, 1) < 0.15 {
					in.Sites[i].Mandatory = true
					in.Sites[i].Kind = VisitSpoof
					in.Sites[i].UtilJ = 0
					in.Sites[i].Window.D = in.Sites[i].Window.R + 5e4
				}
				// Duplicated positions make zero-length legs, and repeated
				// utilities and durations make exact ratio ties.
				if i > 0 && r.Uniform(0, 1) < 0.2 {
					prev := in.Sites[i-1]
					in.Sites[i].Pos = prev.Pos
					if !prev.Mandatory && !in.Sites[i].Mandatory {
						in.Sites[i].UtilJ, in.Sites[i].Dur = prev.UtilJ, prev.Dur
					}
				}
			}
			switch trial % 3 {
			case 1:
				in.BudgetJ = r.Uniform(2e4, 1.5e5) // tight: few covers fit
			case 2:
				in.BudgetJ = 1e12 // loose: windows alone bind
			}
			checkPackMatches(t, fmt.Sprintf("trial %d", trial), in)
		}
	})
	configs := []struct {
		name string
		cfg  BuilderConfig
	}{
		{"default", BuilderConfig{}},
		{"budget=2e6", BuilderConfig{BudgetJ: 2e6}},
		{"budget=5e5", BuilderConfig{BudgetJ: 5e5}},
		{"cooldown=3600", BuilderConfig{CooldownSec: 3600}},
	}
	seeds := 40
	if testing.Short() || raceEnabled {
		seeds = 4
	}
	for _, n := range []int{50, 120, 200, 400} {
		t.Run(fmt.Sprintf("scenario/n=%d", n), func(t *testing.T) {
			t.Parallel()
			for seed := 1; seed <= seeds; seed++ {
				nw, _, err := trace.DefaultScenario(uint64(seed), n).Build()
				if err != nil {
					t.Fatal(err)
				}
				ch := mc.New(nw.Sink(), mc.DefaultParams())
				for _, c := range configs {
					in, err := BuildInstance(nw, ch, c.cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkPackMatches(t, fmt.Sprintf("seed %d %s", seed, c.name), in)
				}
			}
		})
	}
}

// FuzzPackCovers holds packCovers to the exhaustive packer on
// fuzz-shaped instances with mandatory sites, shared positions and
// budgets from tight to loose.
func FuzzPackCovers(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(0), 1.0)
	f.Add(int64(7), uint8(30), uint8(0), uint8(5), 0.05)
	f.Add(int64(42), uint8(20), uint8(6), uint8(2), 1e6)
	f.Fuzz(func(t *testing.T, seed int64, n, targets, dups uint8, budgetScale float64) {
		sites := int(n%48) + 1
		in := fuzzInstance(seed, sites)
		for i := 0; i < int(targets%8) && i < sites; i++ {
			in.Sites[i].Mandatory = true
			in.Sites[i].Kind = VisitSpoof
			in.Sites[i].UtilJ = 0
			in.Sites[i].Window.D = in.Sites[i].Window.R + 5e4
		}
		for i := 1; i <= int(dups%8) && i < sites; i++ {
			in.Sites[sites-i].Pos = in.Sites[sites-i-1].Pos
		}
		in.BudgetJ *= budgetScale
		checkPackMatches(t, "fuzz", in)
	})
}
