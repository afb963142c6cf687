package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/metrics"
	"github.com/reprolab/wrsn-csa/internal/report"
)

// solverSpecs pairs each attack planner with its execution mode: the
// Direct attacker does no cover work at all (that is its definition), the
// others keep their cover with opportunistic fill.
var solverSpecs = []struct {
	name   string
	noFill bool
}{
	{campaign.SolverCSA, false},
	{campaign.SolverGreedyNearest, false},
	{campaign.SolverRandom, false},
	{campaign.SolverDirect, true},
}

// RunExhaustionVsN reproduces R-Fig 4, the headline figure: the fraction
// of key nodes exhausted by the horizon, per planner, as the network
// grows. Live audits impound a flagged charger mid-run, so detection is
// what separates the planners — every attacker that survives undetected
// exhausts its targets eventually. The seed × size × solver campaign
// grid fans out over the worker pool; the merge consumes results in
// sweep order, so the table is identical at any worker count.
func RunExhaustionVsN(ctx context.Context, cfg Config) (*Output, error) {
	sizes := []int{100, 150, 200, 250, 300}
	if cfg.Quick {
		sizes = []int{80, 140}
	}
	seeds := cfg.seeds()

	// One job per (size, solver, seed) cell, laid out in merge order.
	type job struct {
		n    int
		spec int
		seed uint64
	}
	jobs := make([]job, 0, len(sizes)*len(solverSpecs)*seeds)
	for _, n := range sizes {
		for si := range solverSpecs {
			for s := 0; s < seeds; s++ {
				jobs = append(jobs, job{n: n, spec: si, seed: cfg.seed(s)})
			}
		}
	}
	outs, err := mapTimed(ctx, cfg, len(jobs), func(ctx context.Context, i int) (*campaign.Outcome, error) {
		j := jobs[i]
		spec := solverSpecs[j.spec]
		return runOneAttack(ctx, cfg, j.seed, j.n, jobspec.Campaign{
			Solver: spec.name, NoFill: spec.noFill,
		})
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("R-Fig 4 — key-node exhaustion ratio vs network size",
		"n", "solver", "exhaust_ratio", "stealthy_exhaust", "ci95", "detected_frac", "caught_day_mean")
	series := make([]*metrics.Series, len(solverSpecs))
	for i, s := range solverSpecs {
		series[i] = &metrics.Series{Label: s.name}
	}
	var points []PointTiming
	k := 0
	for _, n := range sizes {
		for si, spec := range solverSpecs {
			var ratio, stealthy, det, caughtDay metrics.Summary
			row := k
			for s := 0; s < seeds; s++ {
				o := outs[k].Value
				k++
				if len(o.KeyNodes) == 0 {
					continue // no separators: exhaustion is vacuous
				}
				ratio.Add(o.KeyExhaustRatio())
				det.Add(b2f(o.Detected))
				// Stealthy exhaustion is the attack's real gain: kills
				// only count while the charger is still trusted.
				if o.Detected {
					stealthy.Add(0)
				} else {
					stealthy.Add(o.KeyExhaustRatio())
				}
				if o.Caught {
					caughtDay.Add(o.CaughtAt / 86400)
				}
			}
			tbl.AddRowf(n, spec.name, ratio.Mean(), stealthy.Mean(), stealthy.CI95(), det.Mean(), meanCell(&caughtDay))
			series[si].Append(float64(n), stealthy.Mean())
			points = append(points, PointTiming{
				Label:   fmt.Sprintf("n=%d/%s", n, spec.name),
				Elapsed: sumElapsed(outs, row, k),
			})
		}
	}
	return &Output{
		ID: "rfig4", Title: "Key-node exhaustion vs network size",
		Table: tbl, XName: "n", Series: series,
		Timing: Timing{Points: points},
		Notes: []string{
			"Paper claim: CSA exhausts ≥80% of key nodes without being detected.",
			"Series plot stealthy exhaustion (exhaustion achieved while undetected).",
			"Expected shape: CSA ≥0.8 at all sizes with detected_frac ≈ 0; every baseline is caught, so its stealthy exhaustion collapses to ~0.",
		},
	}, nil
}

// RunUtilityVsBudget reproduces R-Fig 5: the planned cover utility of each
// solver as the TIDE instance's energy budget sweeps, on a fixed 200-node
// network. Utility here is the planner-level objective (energy committed
// to genuine requests inside the plan), the quantity TIDE maximizes. The
// build+solve grid fans out over the worker pool.
func RunUtilityVsBudget(ctx context.Context, cfg Config) (*Output, error) {
	n := 200
	budgets := []float64{2e5, 5e5, 1e6, 2e6, 4e6, 8e6}
	if cfg.Quick {
		n = 100
		budgets = []float64{2e5, 1e6, 4e6}
	}
	solvers := []string{campaign.SolverCSA, campaign.SolverGreedyNearest, campaign.SolverRandom, campaign.SolverDirect}
	seeds := cfg.seeds()

	type cell struct {
		res     attack.Result
		targets int
	}
	type job struct {
		budget float64
		solver string
		seed   uint64
	}
	jobs := make([]job, 0, len(budgets)*len(solvers)*seeds)
	for _, b := range budgets {
		for _, solver := range solvers {
			for s := 0; s < seeds; s++ {
				jobs = append(jobs, job{budget: b, solver: solver, seed: cfg.seed(s)})
			}
		}
	}
	outs, err := mapTimed(ctx, cfg, len(jobs), func(ctx context.Context, i int) (cell, error) {
		j := jobs[i]
		if err := ctx.Err(); err != nil {
			return cell{}, err
		}
		in, err := buildInstance(j.seed, n, j.budget)
		if err != nil {
			return cell{}, err
		}
		res, err := attack.Solve(in, j.solver, rngFor(j.seed))
		if err != nil {
			return cell{}, err
		}
		return cell{res: res, targets: len(in.Mandatories())}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("R-Fig 5 — planned cover utility vs charger budget",
		"budget_mj", "solver", "utility_mj", "ci95", "spoofs_planned", "targets_total")
	series := make([]*metrics.Series, len(solvers))
	for i, s := range solvers {
		series[i] = &metrics.Series{Label: s}
	}
	var points []PointTiming
	k := 0
	for _, b := range budgets {
		for si, solver := range solvers {
			var util, spoofs, targets metrics.Summary
			row := k
			for s := 0; s < seeds; s++ {
				c := outs[k].Value
				k++
				util.Add(c.res.Plan.UtilityJ / 1e6)
				spoofs.Add(float64(c.res.Plan.SpoofCount))
				targets.Add(float64(c.targets))
			}
			tbl.AddRowf(b/1e6, solver, util.Mean(), util.CI95(), spoofs.Mean(), targets.Mean())
			series[si].Append(b/1e6, util.Mean())
			points = append(points, PointTiming{
				Label:   fmt.Sprintf("budget=%.1fMJ/%s", b/1e6, solver),
				Elapsed: sumElapsed(outs, row, k),
			})
		}
	}
	return &Output{
		ID: "rfig5", Title: "Cover utility vs budget",
		Table: tbl, XName: "budget_mj", Series: series,
		Timing: Timing{Points: points},
		Notes: []string{
			"TIDE is lexicographic: spoof coverage first, cover utility second — compare utility between solvers at equal spoofs_planned.",
			"Expected shape: utility grows with budget and saturates once every cover fits. CSA leads among full-coverage planners; GreedyNearest buys utility by abandoning targets at tight budgets; Direct earns none by construction.",
		},
	}, nil
}

// RunRuntime reproduces R-Fig 9: CSA planning wall-clock time as the
// instance grows, against the exact solver's exponential blowup on the
// sizes it can still handle. This driver stays sequential on purpose:
// its table IS a timing measurement, and co-scheduling the solves would
// contaminate the numbers it reports.
func RunRuntime(ctx context.Context, cfg Config) (*Output, error) {
	sizes := []int{50, 100, 200, 300, 400}
	if cfg.Quick {
		sizes = []int{50, 100}
	}
	tbl := report.NewTable("R-Fig 9 — planning runtime", "n", "sites", "csa_ms")
	csaSeries := &metrics.Series{Label: "csa_ms"}
	for _, n := range sizes {
		var ms, sites metrics.Summary
		for s := 0; s < cfg.seeds(); s++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			in, err := buildInstance(cfg.seed(s), n, 0)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := attack.SolveCSA(in); err != nil {
				return nil, err
			}
			ms.Add(float64(time.Since(start).Microseconds()) / 1000)
			sites.Add(float64(len(in.Sites)))
		}
		tbl.AddRowf(n, sites.Mean(), ms.Mean())
		csaSeries.Append(float64(n), ms.Mean())
	}
	return &Output{
		ID: "rfig9", Title: "CSA planning runtime",
		Table: tbl, XName: "n", Series: []*metrics.Series{csaSeries},
		Notes: []string{
			"Expected shape: low-order polynomial growth; planning stays interactive (well under a second) at evaluation sizes.",
		},
	}, nil
}

// buildInstance constructs the TIDE instance of a forked baseline world.
func buildInstance(seed uint64, n int, budget float64) (*attack.Instance, error) {
	nw, ch, err := forkDefaultWorld(seed, n)
	if err != nil {
		return nil, err
	}
	return attack.BuildInstance(nw, ch, attack.BuilderConfig{BudgetJ: budget})
}

// meanCell is a summary's mean as a table cell, or "—" when the summary
// is empty: a mean over no runs (say, the catch day when no run was
// caught) is undefined, not 0.
func meanCell(s *metrics.Summary) any {
	if s.N() == 0 {
		return "—"
	}
	return s.Mean()
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
