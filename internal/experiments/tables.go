package experiments

import (
	"context"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/metrics"
	"github.com/reprolab/wrsn-csa/internal/report"
	"github.com/reprolab/wrsn-csa/internal/testbed"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// RunHeadline reproduces R-Tab 1: the paper's headline claim across
// deployment patterns — exhaustion ratio, stealth, and how much genuine
// charging service the network still received, for the CSA attacker
// against the no-cover Direct attacker. The pattern × solver × seed grid
// fans out over the worker pool.
func RunHeadline(ctx context.Context, cfg Config) (*Output, error) {
	n := 200
	if cfg.Quick {
		n = 100
	}
	patterns := []trace.Deployment{trace.DeployUniform, trace.DeployClustered, trace.DeployCorridor}
	specs := []struct {
		solver string
		noFill bool
	}{{campaign.SolverCSA, false}, {campaign.SolverDirect, true}}
	seeds := cfg.seeds()

	type job struct {
		pat  trace.Deployment
		spec int
		seed uint64
	}
	jobs := make([]job, 0, len(patterns)*len(specs)*seeds)
	for _, pat := range patterns {
		for si := range specs {
			for s := 0; s < seeds; s++ {
				jobs = append(jobs, job{pat: pat, spec: si, seed: cfg.seed(s)})
			}
		}
	}
	outs, err := mapTimed(ctx, cfg, len(jobs), func(ctx context.Context, i int) (*campaign.Outcome, error) {
		j := jobs[i]
		sc := trace.DefaultScenario(j.seed, n)
		sc.Deploy.Pattern = j.pat
		return runAttackOnScenario(ctx, cfg, sc, jobspec.Campaign{
			Seed: j.seed, Solver: specs[j.spec].solver, NoFill: specs[j.spec].noFill,
		})
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("R-Tab 1 — headline: exhaustion and stealth by scenario",
		"deployment", "solver", "keys", "exhaust_ratio", "detected_frac", "served_frac", "util_mj")
	var points []PointTiming
	k := 0
	for _, pat := range patterns {
		for _, spec := range specs {
			var keys, ratio, det, served, util metrics.Summary
			row := k
			for s := 0; s < seeds; s++ {
				o := outs[k].Value
				k++
				if len(o.KeyNodes) == 0 {
					continue // no separators: exhaustion is vacuous
				}
				keys.Add(float64(len(o.KeyNodes)))
				ratio.Add(o.KeyExhaustRatio())
				det.Add(b2f(o.Detected))
				served.Add(metrics.Ratio(float64(o.RequestsServed), float64(o.RequestsIssued)))
				util.Add(o.CoverUtilityJ / 1e6)
			}
			tbl.AddRowf(pat.String(), spec.solver, keys.Mean(), ratio.Mean(), det.Mean(), served.Mean(), util.Mean())
			points = append(points, PointTiming{
				Label:   fmt.Sprintf("%s/%s", pat, spec.solver),
				Elapsed: sumElapsed(outs, row, k),
			})
		}
	}
	return &Output{
		ID: "rtab1", Title: "Headline table",
		Table:  tbl,
		Timing: Timing{Points: points},
		Notes: []string{
			"Paper claim: CSA exhausts ≥80% of key nodes undetected; expect exhaust_ratio ≥ 0.8 with detected_frac 0 for CSA, and detected_frac ≈ 1 with low exhaustion for Direct.",
		},
	}, nil
}

// RunTestbed reproduces R-Tab 2: the TCP software-in-the-loop test bed —
// real node and charger agents exchanging protocol messages over loopback
// TCP — under attack and under legitimate service. The test bed runs real
// agents against the wall clock, so the two modes execute sequentially;
// parallelizing them would contend for CPU inside their real-time windows.
func RunTestbed(ctx context.Context, cfg Config) (*Output, error) {
	duration := 4000
	if cfg.Quick {
		duration = 1500
	}
	tbl := report.NewTable("R-Tab 2 — TCP software-in-the-loop test bed",
		"mode", "sessions", "deaths", "key_dead", "key_total", "detected")
	for _, mode := range []struct {
		name   string
		attack bool
	}{{"attack(CSA)", true}, {"legitimate", false}} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := testbed.Run(testbed.RunConfig{
			Nodes:          testbed.DefaultNodes(),
			Attack:         mode.attack,
			DurationRealMs: duration,
		})
		if err != nil {
			return nil, err
		}
		if len(rep.AgentErrs) > 0 {
			return nil, rep.AgentErrs[0]
		}
		tbl.AddRowf(mode.name, rep.Sessions, rep.NodesDead, rep.KeyDead, rep.KeyTotal, rep.Detected)
	}
	return &Output{
		ID: "rtab2", Title: "Software-in-the-loop test bed",
		Table: tbl,
		Notes: []string{
			"Substitute for the paper's physical test bed (see DESIGN.md): same protocol path over a real TCP stack.",
			"Expected: attack kills both key relays undetected; legitimate mode keeps every node alive.",
		},
	}, nil
}

// RunAblations reproduces R-Tab 3: removing one attack ingredient at a
// time shows why each exists. no-cover (Direct) and no-fill lose stealth;
// a single emitter cannot create the null, so the 'spoof' genuinely
// charges its victims; commodity phase jitter leaves residuals the
// rectifier harvests. The variant × seed grid fans out over the worker
// pool.
func RunAblations(ctx context.Context, cfg Config) (*Output, error) {
	n := 200
	if cfg.Quick {
		n = 100
	}
	variants := []struct {
		name string
		mut  func(*jobspec.Campaign)
	}{
		{"CSA (full)", func(*jobspec.Campaign) {}},
		{"no-cover (Direct)", func(c *jobspec.Campaign) { c.Solver = campaign.SolverDirect; c.NoFill = true }},
		{"no-fill (plan only)", func(c *jobspec.Campaign) { c.NoFill = true }},
		{"single-emitter", func(c *jobspec.Campaign) { c.SingleEmitter = true }},
		{"no-live-audit", func(c *jobspec.Campaign) { c.AuditEverySec = -1 }},
		{"progressive (extension)", func(c *jobspec.Campaign) { c.Progressive = true }},
		{"CSA+polish (extension)", func(c *jobspec.Campaign) { c.Solver = campaign.SolverCSAPolished }},
	}
	seeds := cfg.seeds()

	type job struct {
		variant int
		seed    uint64
	}
	jobs := make([]job, 0, len(variants)*seeds)
	for vi := range variants {
		for s := 0; s < seeds; s++ {
			jobs = append(jobs, job{variant: vi, seed: cfg.seed(s)})
		}
	}
	outs, err := mapTimed(ctx, cfg, len(jobs), func(ctx context.Context, i int) (*campaign.Outcome, error) {
		j := jobs[i]
		cc := jobspec.Campaign{Seed: j.seed, Solver: campaign.SolverCSA}
		variants[j.variant].mut(&cc)
		return runOneAttack(ctx, cfg, j.seed, n, cc)
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("R-Tab 3 — ablations",
		"variant", "exhaust_ratio", "detected_frac", "caught_day_mean", "served_frac")
	var points []PointTiming
	k := 0
	for _, v := range variants {
		var ratio, det, caughtDay, served metrics.Summary
		row := k
		for s := 0; s < seeds; s++ {
			o := outs[k].Value
			k++
			if len(o.KeyNodes) == 0 {
				continue // no separators: exhaustion is vacuous
			}
			ratio.Add(o.KeyExhaustRatio())
			det.Add(b2f(o.Detected))
			served.Add(metrics.Ratio(float64(o.RequestsServed), float64(o.RequestsIssued)))
			if o.Caught {
				caughtDay.Add(o.CaughtAt / 86400)
			}
		}
		tbl.AddRowf(v.name, ratio.Mean(), det.Mean(), meanCell(&caughtDay), served.Mean())
		points = append(points, PointTiming{Label: v.name, Elapsed: sumElapsed(outs, row, k)})
	}
	return &Output{
		ID: "rtab3", Title: "Ablations",
		Table:  tbl,
		Timing: Timing{Points: points},
		Notes: []string{
			"Expected: full CSA ≈ 1.0 exhaustion, 0 detection. no-cover/no-fill get caught (shortfall). single-emitter cannot null — victims get genuinely charged and survive.",
		},
	}, nil
}
