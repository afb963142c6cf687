package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign"
	"github.com/reprolab/wrsn-csa/internal/digest"
)

func TestRandomInstanceSolve(t *testing.T) {
	for _, planner := range []string{"CSA", "Random", "GreedyNearest", "Direct"} {
		if err := run([]string{"-random", "8", "-planner", planner}); err != nil {
			t.Errorf("%s: %v", planner, err)
		}
	}
}

func TestCompareOpt(t *testing.T) {
	if err := run([]string{"-random", "7", "-compare-opt"}); err != nil {
		t.Fatal(err)
	}
}

func TestEmitAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.json")
	if err := run([]string{"-random", "6", "-emit", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path}); err != nil {
		t.Fatal(err)
	}
}

// An open cover window's +Inf deadline must survive -in → -emit.
func TestOpenWindowRoundTrip(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := run([]string{"-random", "6", "-emit", first}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	var in attack.Instance
	if err := digest.Decode(data, &in); err != nil {
		t.Fatal(err)
	}
	in.Sites[len(in.Sites)-1].Window.D = math.Inf(1)
	if data, err = digest.Canonical(&in); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", first, "-emit", second}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) || !bytes.Contains(again, []byte(`"+Inf"`)) {
		t.Errorf("instance with an open window did not round-trip:\n in: %s\nout: %s", data, again)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-planner", "Oracle", "-random", "5"},
		{"-in", "/definitely/missing.json"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// tide-solve accepts every planner name a campaign accepts.
func TestEveryCampaignSolver(t *testing.T) {
	for _, planner := range []string{campaign.SolverCSA, campaign.SolverCSAPolished,
		campaign.SolverRandom, campaign.SolverGreedyNearest, campaign.SolverDirect} {
		if err := run([]string{"-random", "8", "-planner", planner}); err != nil {
			t.Errorf("%s: %v", planner, err)
		}
	}
}
