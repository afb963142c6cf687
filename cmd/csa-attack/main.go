// Command csa-attack plans and executes a charging spoofing attack
// campaign and reports the per-key-node outcome: when each target was
// spoofed (or how it fell to the cascade), when it died, and what the
// detector suite concluded.
//
// The campaign itself is described by a serializable job spec — the
// same one cmd/wrsncsad accepts — so the run can execute in-process
// (the default), be written to a file with -emit-job, or be submitted
// to a running daemon with -daemon; all three produce the same Outcome
// digest.
//
// With -metrics and/or -events the run records campaign telemetry
// (sessions, spoofs, deaths, audits, charger travel) and exports it as
// CSV, or JSON when the file extension is .json.
//
// Usage:
//
//	csa-attack [-seed 42] [-n 200] [-days 14] [-solver CSA] [-plan-only]
//	           [-faults 1.0] [-metrics telemetry.csv] [-events events.json]
//	           [-emit-job job.json] [-daemon http://127.0.0.1:8077]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/cliexport"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/report"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csa-attack:", err)
		os.Exit(1)
	}
}

// renderMap draws the deployment, the key-node targets and the planned
// route to stdout.
func renderMap(nw *wrsn.Network, keys []wrsn.KeyNode, in *attack.Instance, res attack.Result) error {
	pts := make([]geom.Point, 0, nw.Len())
	for i := range nw.Len() {
		pts = append(pts, nw.Pos(wrsn.NodeID(i)))
	}
	m := report.NewFieldMap(geom.BoundingBox(pts), 100, 32)
	route := make([]geom.Point, 0, len(res.Plan.Order)+1)
	route = append(route, in.Depot)
	for _, idx := range res.Plan.Order {
		route = append(route, in.Sites[idx].Pos)
	}
	m.Path(route, '.')
	m.MarkAll(pts, 'o')
	for _, k := range keys {
		m.Mark(nw.Pos(k.ID), '#')
	}
	m.Mark(nw.Sink(), 'S')
	m.Legend('S', "sink / charger depot")
	m.Legend('o', "sensor node")
	m.Legend('#', "key node (spoof target)")
	m.Legend('.', "planned charger route")
	return m.Render(os.Stdout)
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("csa-attack", flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "scenario seed")
	n := fs.Int("n", 200, "node count")
	days := fs.Float64("days", 14, "simulated horizon in days")
	solver := fs.String("solver", campaign.SolverCSA, "planner: CSA, CSA+polish, Random, GreedyNearest, Direct")
	planOnly := fs.Bool("plan-only", false, "print the TIDE plan and exit without executing")
	showMap := fs.Bool("map", false, "render the field, targets and planned route as ASCII art")
	timeline := fs.Bool("timeline", false, "print the campaign's chronological event narrative")
	jobOut := fs.String("emit-job", "", "write the campaign's job spec as JSON to this file (POST it to a daemon later)")
	daemon := fs.String("daemon", "", "submit the campaign to the wrsncsad daemon at this base URL instead of running in-process")
	var tel cliexport.Telemetry
	tel.Register(fs)
	var fl cliexport.FaultLoad
	fl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := jobspec.Spec{
		Kind:     jobspec.KindAttack,
		Scenario: trace.DefaultScenario(*seed, *n),
		Campaign: jobspec.Campaign{
			Seed:       *seed,
			HorizonSec: *days * 86400,
			Solver:     *solver,
		},
		Faults: fl.Spec(*seed, *days*86400),
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

	probe := tel.Probe()
	nw, _, err := spec.Scenario.Build()
	if err != nil {
		return err
	}
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	ch.Instrument(probe)
	keys := nw.KeyNodes()
	fmt.Printf("network: %d nodes, %d key nodes\n", nw.Len(), len(keys))

	in, err := attack.BuildInstance(nw, ch, attack.BuilderConfig{HorizonSec: *days * 86400})
	if err != nil {
		return err
	}
	// The campaign's planner draws from this stream (the run's "campaign"
	// stream, split for the solver), so the plan printed here is the plan
	// the campaign executes.
	res, err := attack.Solve(in, *solver, rng.New(*seed).Split("campaign").Split("solver"))
	if err != nil {
		return err
	}
	fmt.Printf("TIDE instance: %d sites (%d mandatory), budget %.1f MJ\n",
		len(in.Sites), len(in.Mandatories()), in.BudgetJ/1e6)
	fmt.Printf("plan: %d stops (%d spoofs), travel %.1f km, energy %.2f MJ, cover utility %.0f kJ, skipped targets %d\n",
		len(res.Plan.Order), res.Plan.SpoofCount, res.Plan.TravelM/1000,
		res.Plan.EnergyJ/1e6, res.Plan.UtilityJ/1000, len(res.SkippedTargets))
	if *showMap {
		if err := renderMap(nw, keys, in, res); err != nil {
			return err
		}
	}
	if *planOnly {
		tbl := report.NewTable("planned stops", "#", "node", "kind", "arrive_day", "begin_day", "dur_min")
		for i, stop := range res.Plan.Schedule {
			site := in.Sites[stop.Site]
			tbl.AddRowf(i, int(site.Node), site.Kind.String(), stop.Arrive/86400, stop.Begin/86400, site.Dur/60)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			return err
		}
		return tel.Export()
	}

	if *daemon != "" {
		return cliexport.RunDaemon(ctx, *daemon, spec)
	}

	// The executed campaign runs from the spec — the exact computation a
	// daemon would perform for the same job.
	runRes, err := jobspec.Run(ctx, spec, probe)
	if err != nil {
		return err
	}
	o := runRes.Outcome
	cliexport.PrintFaults(o.FaultReport())

	spoofedAt := make(map[wrsn.NodeID]float64)
	for _, s := range o.Sessions {
		if s.Kind == charging.SessionSpoof {
			spoofedAt[s.Node] = s.Start
		}
	}
	deadAt := make(map[wrsn.NodeID]float64)
	for _, d := range o.Audit.Deaths {
		deadAt[d.Node] = d.Time
	}
	tbl := report.NewTable("key-node outcomes", "node", "severs", "spoofed_day", "dead_day", "fate")
	for _, k := range o.KeyNodes {
		spoof, wasSpoofed := spoofedAt[k.ID]
		death, isDead := deadAt[k.ID]
		fate := "survived"
		switch {
		case wasSpoofed && isDead:
			fate = "spoofed+exhausted"
		case isDead:
			fate = "stranded+exhausted"
		case wasSpoofed:
			fate = "spoofed, survived (drift)"
		}
		spoofCell, deadCell := "-", "-"
		if wasSpoofed {
			spoofCell = fmt.Sprintf("%.2f", spoof/86400)
		}
		if isDead {
			deadCell = fmt.Sprintf("%.2f", death/86400)
		}
		tbl.AddRowf(int(k.ID), k.Severed, spoofCell, deadCell, fate)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nexhaustion: %d/%d (%.0f%%), detected: %v", o.KeyDead, len(o.KeyNodes), 100*o.KeyExhaustRatio(), o.Detected)
	if o.Caught {
		fmt.Printf(" (impounded day %.2f by %s)", o.CaughtAt/86400, o.CaughtBy)
	}
	fmt.Println()
	for _, v := range o.Verdicts {
		fmt.Println(" ", v)
	}
	if *timeline {
		fmt.Println("\ncampaign timeline:")
		for _, line := range campaign.FormatTimeline(campaign.Timeline(o)) {
			fmt.Println(" ", line)
		}
	}
	return tel.Export()
}
