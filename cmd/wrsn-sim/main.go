// Command wrsn-sim runs one end-to-end WRSN charging simulation — the
// legitimate on-demand service by default, or the full charging spoofing
// attack with -attack — and prints the outcome and detector verdicts.
//
// The run is described by a serializable job spec (the same one
// cmd/wrsncsad accepts), so the exact same computation can execute
// in-process (the default), be written to a file with -emit-job, or be
// submitted to a running daemon with -daemon; all three produce the
// same Outcome digest.
//
// With -metrics and/or -events the run records telemetry (sim engine
// throughput, charger travel, campaign sessions) and exports it as CSV,
// or JSON when the file extension is .json.
//
// Usage:
//
//	wrsn-sim [-seed 42] [-n 200] [-pattern uniform|clustered|grid|corridor]
//	         [-days 14] [-scheduler NJNP|FCFS|EDF] [-attack] [-solver CSA]
//	         [-faults 1.0] [-metrics telemetry.csv] [-events events.json]
//	         [-emit-job job.json] [-daemon http://127.0.0.1:8077]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/cliexport"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "wrsn-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("wrsn-sim", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "scenario seed")
	n := fs.Int("n", 200, "node count")
	pattern := fs.String("pattern", "uniform", "deployment pattern: uniform, clustered, grid, corridor")
	days := fs.Float64("days", 14, "simulated horizon in days")
	schedName := fs.String("scheduler", "NJNP", "charging scheduler: NJNP, FCFS, EDF, PeriodicTSP")
	doAttack := fs.Bool("attack", false, "run the charging spoofing attack instead of legitimate service")
	solver := fs.String("solver", campaign.SolverCSA, "attack planner: CSA, CSA+polish, Random, GreedyNearest, Direct")
	chargers := fs.Int("chargers", 1, "fleet size for legitimate service (>1 uses the event-driven fleet)")
	verify := fs.Float64("verify", 0, "harvest-verification probability (countermeasure extension)")
	scenarioIn := fs.String("scenario", "", "load the scenario from this JSON file (overrides -seed/-n/-pattern)")
	scenarioOut := fs.String("emit-scenario", "", "write the effective scenario as JSON to this file")
	jobOut := fs.String("emit-job", "", "write the run's job spec as JSON to this file (POST it to a daemon later)")
	daemon := fs.String("daemon", "", "submit the job to the wrsncsad daemon at this base URL instead of running in-process")
	var tel cliexport.Telemetry
	tel.Register(fs)
	var fl cliexport.FaultLoad
	fl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *chargers < 1 {
		return fmt.Errorf("chargers must be ≥ 1")
	}
	if *chargers > 1 && *doAttack {
		return fmt.Errorf("the attack campaign is single-charger; -chargers applies to legitimate service")
	}

	var sc trace.Scenario
	if *scenarioIn != "" {
		var err error
		sc, err = trace.LoadScenario(*scenarioIn)
		if err != nil {
			return err
		}
		*pattern = sc.Deploy.Pattern.String()
	} else {
		sc = trace.DefaultScenario(*seed, *n)
		d, err := trace.ParseDeployment(*pattern)
		if err != nil {
			return err
		}
		sc.Deploy.Pattern = d
	}
	if *scenarioOut != "" {
		if err := sc.SaveScenario(*scenarioOut); err != nil {
			return err
		}
		fmt.Println("wrote scenario to", *scenarioOut)
	}

	spec := jobspec.Spec{
		Kind:     jobspec.KindLegit,
		Scenario: sc,
		Campaign: jobspec.Campaign{
			Seed:       *seed,
			HorizonSec: *days * 86400,
			Scheduler:  *schedName,
			Defense:    defense.Config{VerifyProb: *verify},
		},
		Faults: fl.Spec(*seed, *days*86400),
	}
	switch {
	case *doAttack:
		spec.Kind = jobspec.KindAttack
		spec.Campaign.Solver = *solver
	case *chargers > 1:
		spec.Kind = jobspec.KindFleet
		spec.Chargers = *chargers
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if *jobOut != "" {
		data, err := spec.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jobOut, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote job spec to", *jobOut)
	}

	// The banner needs the built world (node/key counts); the run itself
	// rebuilds from the spec, so this build is display-only.
	nw, _, err := sc.Build()
	if err != nil {
		return err
	}
	fmt.Printf("scenario: %d nodes (%s), %d key nodes, sink %v, horizon %.1f days\n",
		nw.Len(), *pattern, len(nw.KeyNodes()), nw.Sink(), *days)

	if *daemon != "" {
		return cliexport.RunDaemon(ctx, *daemon, spec)
	}

	res, err := jobspec.Run(ctx, spec, tel.Probe())
	if err != nil {
		return err
	}
	if res.Fleet != nil {
		fo := res.Fleet
		fmt.Printf("\nmode: legit fleet of %d\n", *chargers)
		fmt.Printf("sessions: %d, requests served %d/%d, utility %.0f kJ, fleet energy %.2f MJ, busy %.0f%%\n",
			len(fo.Audit.Sessions), fo.RequestsServed, fo.RequestsIssued,
			fo.CoverUtilityJ/1000, fo.EnergySpentJ/1e6, 100*fo.BusyFrac)
		fmt.Printf("dead: %d/%d\n", fo.DeadTotal, nw.Len())
		cliexport.PrintFaults(fo.FaultReport())
		return tel.Export()
	}

	o := res.Outcome
	fmt.Printf("\nmode: %s\n", o.Solver)
	fmt.Printf("sessions: %d, requests served %d/%d, cover utility %.0f kJ, charger energy %.2f MJ\n",
		len(o.Sessions), o.RequestsServed, o.RequestsIssued, o.CoverUtilityJ/1000, o.EnergySpentJ/1e6)
	fmt.Printf("dead: %d/%d (key nodes %d/%d), disconnected survivors: %d\n",
		o.DeadTotal, nw.Len(), o.KeyDead, len(o.KeyNodes), o.Disconnected)
	if math.IsInf(o.FirstDeathAt, 1) {
		fmt.Println("first death: never")
	} else {
		fmt.Printf("first death: day %.2f\n", o.FirstDeathAt/86400)
	}
	if o.Caught {
		fmt.Printf("charger IMPOUNDED at day %.2f by %s\n", o.CaughtAt/86400, o.CaughtBy)
	}
	for _, v := range o.Verdicts {
		fmt.Println(" ", v)
	}
	if *doAttack {
		fmt.Printf("key-node exhaustion: %.0f%%, detected: %v\n", 100*o.KeyExhaustRatio(), o.Detected)
	}
	cliexport.PrintFaults(o.FaultReport())
	return tel.Export()
}
