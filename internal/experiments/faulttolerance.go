package experiments

import (
	"context"
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/metrics"
	"github.com/reprolab/wrsn-csa/internal/report"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

// RunFaultTolerance is R-Fig 14, the robustness extension: the CSA
// attack executed on an unreliable network. A deterministic fault plan —
// node hardware failures, lost charging requests, charger breakdowns,
// sink outages — is scaled by an intensity factor and injected into the
// campaign; the figure tracks how the attack's stealthy exhaustion and
// the sink's detection rate degrade as the world gets less reliable.
// Intensity 0 is the reliable-network control and must match R-Fig 4's
// corresponding cell exactly.
func RunFaultTolerance(ctx context.Context, cfg Config) (*Output, error) {
	n := 120
	intensities := []float64{0, 0.5, 1, 2, 4}
	if cfg.Quick {
		n = 80
		intensities = []float64{0, 1, 2}
	}
	seeds := cfg.seeds()

	type job struct {
		intensity float64
		seed      uint64
	}
	jobs := make([]job, 0, len(intensities)*seeds)
	for _, f := range intensities {
		for s := 0; s < seeds; s++ {
			jobs = append(jobs, job{intensity: f, seed: cfg.seed(s)})
		}
	}
	type res struct {
		out *campaign.Outcome
		rep *faults.Report
	}
	outs, err := mapTimed(ctx, cfg, len(jobs), func(ctx context.Context, i int) (*res, error) {
		j := jobs[i]
		spec := jobspec.Spec{
			Kind:     jobspec.KindAttack,
			Scenario: trace.DefaultScenario(j.seed, n),
			Campaign: jobspec.Campaign{Seed: j.seed, Solver: campaign.SolverCSA},
		}
		if j.intensity > 0 {
			// The fault seed is the campaign seed: reliability varies with
			// the replication, but identically across intensities' shared
			// base load. The run compiles its own single-use plan.
			fs := faults.DefaultSpec(j.seed, attack.DefaultHorizonSec).Scale(j.intensity)
			spec.Faults = &fs
		}
		r, err := runLocal(ctx, cfg, spec)
		if err != nil {
			return nil, err
		}
		return &res{out: r.Outcome, rep: r.Outcome.FaultReport()}, nil
	})
	if err != nil {
		return nil, err
	}

	tbl := report.NewTable("R-Fig 14 — attack resilience vs fault intensity",
		"intensity", "exhaust_ratio", "stealthy_exhaust", "ci95", "detected_frac",
		"injected", "survived", "fatal")
	stealthySeries := &metrics.Series{Label: "stealthy_exhaust"}
	detectedSeries := &metrics.Series{Label: "detected_frac"}
	var points []PointTiming
	k := 0
	for _, f := range intensities {
		var ratio, stealthy, det, injected, survived, fatal metrics.Summary
		row := k
		for s := 0; s < seeds; s++ {
			r := outs[k].Value
			k++
			o := r.out
			if len(o.KeyNodes) == 0 {
				continue // no separators: exhaustion is vacuous
			}
			ratio.Add(o.KeyExhaustRatio())
			det.Add(b2f(o.Detected))
			if o.Detected {
				stealthy.Add(0)
			} else {
				stealthy.Add(o.KeyExhaustRatio())
			}
			if r.rep != nil {
				injected.Add(float64(r.rep.Injected()))
				survived.Add(float64(r.rep.Survived()))
				fatal.Add(float64(r.rep.Fatal()))
			} else {
				injected.Add(0)
				survived.Add(0)
				fatal.Add(0)
			}
		}
		tbl.AddRowf(f, ratio.Mean(), stealthy.Mean(), stealthy.CI95(), det.Mean(),
			injected.Mean(), survived.Mean(), fatal.Mean())
		stealthySeries.Append(f, stealthy.Mean())
		detectedSeries.Append(f, det.Mean())
		points = append(points, PointTiming{
			Label:   fmt.Sprintf("intensity=%g", f),
			Elapsed: sumElapsed(outs, row, k),
		})
	}
	return &Output{
		ID: "rfig14", Title: "Attack resilience under injected faults",
		Table: tbl, XName: "intensity",
		Series: []*metrics.Series{stealthySeries, detectedSeries},
		Timing: Timing{Points: points},
		Notes: []string{
			"Extension beyond the paper: the paper's evaluation assumes a perfectly reliable network.",
			"Intensity scales the default fault load (node failures, 5% request loss, charger breakdowns, one sink outage per horizon).",
			"Intensity 0 is the reliable-network control; its row must match the fault-free CSA campaign bit-for-bit.",
			"Expected shape: the attack is robust to moderate unreliability (lost requests and breakdowns delay, not prevent, exhaustion); heavy fault load can starve the cover service and raise detection.",
		},
	}, nil
}
