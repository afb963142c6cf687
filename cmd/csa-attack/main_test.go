package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/jobspec"
	"github.com/reprolab/wrsn-csa/internal/trace"
)

func TestPlanOnly(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "60", "-plan-only"}); err != nil {
		t.Fatal(err)
	}
}

func TestFullCampaignWithMapAndTimeline(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "60", "-days", "4", "-map", "-timeline"}); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignWithFaults(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "60", "-days", "3", "-faults", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineSolver(t *testing.T) {
	if err := run(context.Background(), []string{"-n", "60", "-days", "3", "-solver", "Direct"}); err != nil {
		t.Fatal(err)
	}
}

func TestTelemetryExport(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	events := filepath.Join(dir, "events.csv")
	args := []string{"-n", "60", "-days", "3", "-metrics", metrics, "-events", events}
	if err := run(context.Background(), args); err != nil {
		t.Fatal(err)
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"counters"`, "campaign.requests.served", "charger.travel_m"} {
		if !strings.Contains(string(m), want) {
			t.Errorf("metrics JSON export missing %q", want)
		}
	}
	e, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(e), "t,kind,node,value,detail\n") {
		t.Errorf("events CSV header missing, got %q", string(e[:min(len(e), 60)]))
	}
}

// The plan csa-attack prints must be the plan the campaign executes,
// whichever solver -solver names.
func TestPrintedPlanIsExecuted(t *testing.T) {
	for _, solver := range []string{campaign.SolverCSA, campaign.SolverCSAPolished,
		campaign.SolverRandom, campaign.SolverGreedyNearest, campaign.SolverDirect} {
		out := captureStdout(t, func() error {
			return run(context.Background(), []string{"-seed", "42", "-n", "120", "-solver", solver, "-plan-only"})
		})
		var printed string
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "plan: ") {
				printed = line
			}
		}
		res, err := jobspec.Run(context.Background(), jobspec.Spec{
			Kind:     jobspec.KindAttack,
			Scenario: trace.DefaultScenario(42, 120),
			Campaign: jobspec.Campaign{Seed: 42, HorizonSec: 14 * 86400, Solver: solver},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Outcome.Planned
		want := fmt.Sprintf("plan: %d stops (%d spoofs), travel %.1f km, energy %.2f MJ, cover utility %.0f kJ, skipped targets %d",
			len(p.Plan.Order), p.Plan.SpoofCount, p.Plan.TravelM/1000,
			p.Plan.EnergyJ/1e6, p.Plan.UtilityJ/1000, len(p.SkippedTargets))
		if printed != want {
			t.Errorf("%s: printed %q, executed %q", solver, printed, want)
		}
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	err = f()
	os.Stdout = stdout
	w.Close()
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
