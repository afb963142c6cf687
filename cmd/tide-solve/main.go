// Command tide-solve solves a standalone TIDE instance: read one from a
// file (or synthesize a random one), run the chosen planner, and print
// the schedule. Instance files are canonical digest JSON
// (internal/digest): -in reads exactly the form -emit writes, and an open
// cover window's +Inf deadline survives the round trip. With -compare-opt it also runs the exact solver and
// reports the approximation ratio (small instances only).
//
// Usage:
//
//	tide-solve -in instance.json [-planner CSA] [-compare-opt]
//	tide-solve -random 10 [-targets 2] [-seed 1] [-emit instance.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/experiments"
	"github.com/reprolab/wrsn-csa/internal/report"
	"github.com/reprolab/wrsn-csa/internal/rng"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tide-solve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tide-solve", flag.ContinueOnError)
	inPath := fs.String("in", "", "read the TIDE instance from this file, in the form -emit writes")
	random := fs.Int("random", 0, "synthesize a random instance with this many sites instead of reading one")
	targets := fs.Int("targets", 2, "mandatory targets in the synthesized instance")
	seed := fs.Uint64("seed", 1, "seed for -random")
	emit := fs.String("emit", "", "write the (possibly synthesized) instance as canonical JSON to this file")
	planner := fs.String("planner", attack.SolverCSA, "planner: CSA, CSA+polish, Random, GreedyNearest, Direct")
	compareOpt := fs.Bool("compare-opt", false, "also solve exactly and report the approximation ratio")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var in *attack.Instance
	switch {
	case *inPath != "":
		data, err := os.ReadFile(*inPath)
		if err != nil {
			return err
		}
		in = &attack.Instance{}
		if err := digest.Decode(data, in); err != nil {
			return fmt.Errorf("decode %s: %w", *inPath, err)
		}
	case *random > 0:
		in = experiments.RandomInstance(rng.New(*seed).Split("tide-solve"), *random, *targets)
	default:
		return fmt.Errorf("provide -in FILE or -random N")
	}
	if err := in.Validate(); err != nil {
		return err
	}
	if *emit != "" {
		data, err := digest.Canonical(in)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*emit, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote instance to", *emit)
	}

	// Only the Random planner draws from the stream.
	res, err := attack.Solve(in, *planner, rng.New(*seed).Split("random-planner"))
	if err != nil {
		return err
	}

	fmt.Printf("%s: %d stops, spoofs %d/%d, utility %.0f J, energy %.0f/%.0f J, travel %.0f m\n",
		res.Solver, len(res.Plan.Order), res.Plan.SpoofCount, len(in.Mandatories()),
		res.Plan.UtilityJ, res.Plan.EnergyJ, in.BudgetJ, res.Plan.TravelM)
	tbl := report.NewTable("schedule", "#", "site", "node", "kind", "arrive_h", "begin_h", "end_h", "wait_min")
	for i, stop := range res.Plan.Schedule {
		site := in.Sites[stop.Site]
		tbl.AddRowf(i, stop.Site, int(site.Node), site.Kind.String(),
			stop.Arrive/3600, stop.Begin/3600, stop.End/3600, stop.WaitSec/60)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}

	if *compareOpt {
		opt, err := attack.SolveExact(in)
		if err != nil {
			return err
		}
		fmt.Printf("\nOPT: spoofs %d, utility %.0f J\n", opt.Plan.SpoofCount, opt.Plan.UtilityJ)
		if opt.Plan.UtilityJ > 0 {
			fmt.Printf("approximation ratio: %.4f\n", res.Plan.UtilityJ/opt.Plan.UtilityJ)
		}
	}
	return nil
}
