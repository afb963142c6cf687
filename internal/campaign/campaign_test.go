package campaign

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func buildScenario(t *testing.T, seed uint64, n int) (*wrsn.Network, *mc.Charger) {
	t.Helper()
	nw, _, err := trace.DefaultScenario(seed, n).Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw, mc.New(nw.Sink(), mc.DefaultParams())
}

// The no-attack baseline: an honest charger keeps the whole network alive
// for the full horizon and the detector suite stays quiet.
func TestLegitBaseline(t *testing.T) {
	nw, ch := buildScenario(t, 42, 150)
	o, err := RunLegit(context.Background(), nw, ch, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if o.DeadTotal != 0 {
		t.Errorf("legit run lost %d nodes", o.DeadTotal)
	}
	if o.Detected {
		t.Errorf("legit run flagged: %+v", o.Verdicts)
	}
	if !math.IsInf(o.FirstDeathAt, 1) {
		t.Errorf("first death at %v", o.FirstDeathAt)
	}
	if o.RequestsServed < o.RequestsIssued*9/10 {
		t.Errorf("served only %d/%d requests", o.RequestsServed, o.RequestsIssued)
	}
	if o.CoverUtilityJ <= 0 || o.EnergySpentJ <= 0 {
		t.Error("no work recorded")
	}
}

// The headline reproduction: CSA exhausts ≥80% of key nodes undetected
// (the paper's aggregate claim), and no individual run collapses.
func TestCSAHeadline(t *testing.T) {
	seeds := []uint64{42, 1000, 8919}
	var sum float64
	for _, seed := range seeds {
		nw, ch := buildScenario(t, seed, 150)
		o, err := RunAttack(context.Background(), nw, ch, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(o.KeyNodes) == 0 {
			t.Fatalf("seed %d: no key nodes in scenario", seed)
		}
		r := o.KeyExhaustRatio()
		sum += r
		if r < 0.7 {
			t.Errorf("seed %d: exhaustion %.2f < 0.7", seed, r)
		}
		if o.Detected {
			t.Errorf("seed %d: CSA detected (caught=%v by %q)", seed, o.Caught, o.CaughtBy)
		}
	}
	if mean := sum / float64(len(seeds)); mean < 0.8 {
		t.Errorf("mean exhaustion %.2f < 0.8", mean)
	}
}

// The naive attacker gets impounded.
func TestDirectAttackerCaught(t *testing.T) {
	nw, ch := buildScenario(t, 42, 150)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, Solver: SolverDirect, NoFill: true})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Detected {
		t.Error("Direct attacker went undetected")
	}
	if !o.Caught {
		t.Error("Direct attacker never impounded by a live audit")
	}
	if o.CaughtBy == "" || o.CaughtAt <= 0 {
		t.Errorf("caught metadata incomplete: %q at %v", o.CaughtBy, o.CaughtAt)
	}
}

// Without the superposition primitive the attack cannot kill: spoof stops
// degenerate to genuine charges.
func TestSingleEmitterAblation(t *testing.T) {
	nw, ch := buildScenario(t, 42, 150)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, SingleEmitter: true})
	if err != nil {
		t.Fatal(err)
	}
	if r := o.KeyExhaustRatio(); r > 0.35 {
		t.Errorf("single-emitter attack still exhausted %.2f", r)
	}
	for _, s := range o.Sessions {
		if s.Kind == charging.SessionSpoof && s.DeliveredJ <= 0 {
			// A "spoof" that delivered nothing with one emitter would
			// mean the null happened anyway.
			t.Error("single-emitter session delivered nothing")
		}
	}
}

// Same seed, same scenario, same outcome — campaigns are deterministic.
func TestDeterminism(t *testing.T) {
	run := func() *Outcome {
		nw, ch := buildScenario(t, 7, 120)
		o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	a, b := run(), run()
	if a.KeyDead != b.KeyDead || len(a.Sessions) != len(b.Sessions) ||
		a.CoverUtilityJ != b.CoverUtilityJ || a.EnergySpentJ != b.EnergySpentJ ||
		a.DeadTotal != b.DeadTotal {
		t.Errorf("nondeterministic outcomes:\n%+v\n%+v", a, b)
	}
	for i := range a.Sessions {
		if a.Sessions[i] != b.Sessions[i] {
			t.Fatalf("session %d differs", i)
		}
	}
}

// Spoofed sessions must sit in the spoofing band: carrier present, below
// the rectifier dead zone, and deliver essentially nothing.
func TestSpoofSessionPhysics(t *testing.T) {
	nw, ch := buildScenario(t, 42, 150)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	spoofs := 0
	for _, s := range o.Sessions {
		if s.Kind != charging.SessionSpoof {
			continue
		}
		spoofs++
		if s.DeliveredJ > 1 {
			t.Errorf("spoof at node %d delivered %.1f J", s.Node, s.DeliveredJ)
		}
		if s.RFAtNodeW >= 1e-4 {
			t.Errorf("spoof RF %v above dead zone", s.RFAtNodeW)
		}
	}
	if spoofs == 0 {
		t.Fatal("no spoof sessions executed")
	}
}

// The audit the detectors judge must be consistent with ground truth.
func TestAuditConsistency(t *testing.T) {
	nw, ch := buildScenario(t, 42, 120)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Audit.Sessions) != len(o.Sessions) {
		t.Errorf("audit sessions %d vs ground truth %d", len(o.Audit.Sessions), len(o.Sessions))
	}
	for i, obs := range o.Audit.Sessions {
		truth := o.Sessions[i]
		if obs.Node != truth.Node || obs.Start != truth.Start || obs.End != truth.End {
			t.Fatalf("audit session %d mismatches ground truth", i)
		}
		if obs.MeterGainJ != truth.MeterGainJ {
			t.Fatalf("audit gain %v vs truth %v", obs.MeterGainJ, truth.MeterGainJ)
		}
	}
	if o.DeadTotal != len(o.Audit.Deaths) {
		t.Errorf("dead %d vs audited deaths %d", o.DeadTotal, len(o.Audit.Deaths))
	}
}

// Lifetime samples are well-formed and monotone in time.
func TestSamples(t *testing.T) {
	nw, ch := buildScenario(t, 42, 100)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, SampleEverySec: 6 * 3600})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Samples) < 50 {
		t.Fatalf("samples = %d", len(o.Samples))
	}
	for i, s := range o.Samples {
		if i > 0 && s.T <= o.Samples[i-1].T {
			t.Fatalf("sample times not increasing at %d", i)
		}
		if s.Connected > s.Alive || s.Alive > nw.Len() {
			t.Fatalf("sample %d inconsistent: %+v", i, s)
		}
	}
	first, last := o.Samples[0], o.Samples[len(o.Samples)-1]
	if first.KeyAlive != len(o.KeyNodes) {
		t.Errorf("initial keys alive = %d, want %d", first.KeyAlive, len(o.KeyNodes))
	}
	if last.KeyAlive != len(o.KeyNodes)-o.KeyDead {
		t.Errorf("final keys alive = %d", last.KeyAlive)
	}
}

func TestUnknownSolver(t *testing.T) {
	nw, ch := buildScenario(t, 1, 60)
	if _, err := RunAttack(context.Background(), nw, ch, Config{Seed: 1, Solver: "Bogus"}); err == nil {
		t.Error("unknown solver accepted")
	}
}

// Every campaign run checks its Config before it starts, so a library
// caller gets the checks a job submission gets: an unknown solver or
// scheduler, or a sampling cadence below the step bound, is an error
// naming the knob, from the fresh runs and the resumes alike.
func TestRunsValidateConfig(t *testing.T) {
	nw, ch := buildScenario(t, 1, 60)
	var ckpt *snapshot.Snapshot
	_, err := RunLegit(context.Background(), nw, ch, Config{Seed: 1, Checkpoint: &CheckpointPlan{
		Sink: func(s *snapshot.Snapshot) error { ckpt = s; return nil },
		Stop: func() bool { return true },
	}})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("checkpointed run: err = %v, want ErrStopped", err)
	}
	runs := map[string]func(Config) error{
		"RunLegit": func(c Config) error {
			nw, ch := buildScenario(t, 1, 60)
			_, err := RunLegit(context.Background(), nw, ch, c)
			return err
		},
		"RunAttack": func(c Config) error {
			nw, ch := buildScenario(t, 1, 60)
			_, err := RunAttack(context.Background(), nw, ch, c)
			return err
		},
		"RunLegitFleet": func(c Config) error {
			nw, ch := buildScenario(t, 1, 60)
			_, err := RunLegitFleet(context.Background(), nw, ch.Fleet(2), c)
			return err
		},
		"Resume": func(c Config) error {
			_, err := Resume(context.Background(), ckpt, c)
			return err
		},
	}
	for name, run := range runs {
		for knob, cfg := range map[string]Config{
			"solver":           {Seed: 1, Solver: "Bogus"},
			"scheduler":        {Seed: 1, Scheduler: "LIFO"},
			"sample_every_sec": {Seed: 1, HorizonSec: 3600, SampleEverySec: 1e-3},
		} {
			err := run(cfg)
			if err == nil || !strings.Contains(err.Error(), knob) {
				t.Errorf("%s with a bad %s: err = %v, want one naming it", name, knob, err)
			}
			if knob == "solver" && !errors.Is(err, ErrUnknownSolver) {
				t.Errorf("%s: err = %v, want ErrUnknownSolver", name, err)
			}
		}
	}
}

func TestSchedulerVariants(t *testing.T) {
	for _, sched := range []string{"FCFS", "NJNP", "EDF"} {
		nw, ch := buildScenario(t, 42, 100)
		o, err := RunLegit(context.Background(), nw, ch, Config{Seed: 42, Scheduler: sched})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if o.Detected {
			t.Errorf("%s: legit run flagged", sched)
		}
		if o.DeadTotal > 5 {
			t.Errorf("%s: %d deaths under legit service", sched, o.DeadTotal)
		}
	}
}

// Attack outcomes respect the audit cadence switch: with live audits off,
// nothing is ever impounded mid-run.
func TestAuditDisabled(t *testing.T) {
	nw, ch := buildScenario(t, 42, 120)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, Solver: SolverDirect, NoFill: true, AuditEverySec: -1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Caught {
		t.Error("impounded despite disabled live audits")
	}
	if !o.Detected {
		t.Error("horizon audit missed the Direct attacker")
	}
}

func TestKeyExhaustRatioEdge(t *testing.T) {
	o := &Outcome{}
	if o.KeyExhaustRatio() != 0 {
		t.Error("no-keys ratio not zero")
	}
}

// Progressive mode: the attacker keeps watching for emergent separators
// and engages them; total damage (dead + stranded) must not drop, and
// stealth must hold.
func TestProgressiveAttack(t *testing.T) {
	nw, ch := buildScenario(t, 42, 200)
	base, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	nw2, ch2 := buildScenario(t, 42, 200)
	prog, err := RunAttack(context.Background(), nw2, ch2, Config{Seed: 42, Progressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Detected {
		t.Errorf("progressive attack detected (by %q)", prog.CaughtBy)
	}
	if prog.ExtraTargets == 0 {
		t.Error("progressive attack engaged no emergent targets")
	}
	baseDamage := base.DeadTotal + base.Disconnected
	progDamage := prog.DeadTotal + prog.Disconnected
	if progDamage < baseDamage-5 {
		t.Errorf("progressive damage %d below static %d", progDamage, baseDamage)
	}
	if prog.KeyExhaustRatio() < 0.8 {
		t.Errorf("progressive exhaustion %.2f", prog.KeyExhaustRatio())
	}
}

// The window-unaware baselines execute their static schedules; their runs
// must complete, produce sessions, and (as the evaluation shows) get
// caught by the live audits.
func TestStaticBaselineExecution(t *testing.T) {
	for _, solver := range []string{SolverRandom, SolverGreedyNearest} {
		nw, ch := buildScenario(t, 42, 150)
		o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, Solver: solver})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if len(o.Sessions) == 0 {
			t.Errorf("%s: no sessions executed", solver)
		}
		if !o.Detected {
			t.Errorf("%s: window-unaware attacker went undetected", solver)
		}
		spoofs := 0
		for _, s := range o.Sessions {
			if s.Kind == charging.SessionSpoof {
				spoofs++
			}
		}
		// A baseline can be impounded before reaching its first spoof
		// stop; otherwise it must have spoofed something.
		if spoofs == 0 && !o.Caught {
			t.Errorf("%s: static plan executed no spoofs yet ran to completion", solver)
		}
	}
}

// CSA+polish runs through the campaign exactly like CSA (window-aware).
func TestPolishedSolverCampaign(t *testing.T) {
	nw, ch := buildScenario(t, 42, 150)
	o, err := RunAttack(context.Background(), nw, ch, Config{Seed: 42, Solver: SolverCSAPolished})
	if err != nil {
		t.Fatal(err)
	}
	if o.Detected {
		t.Error("CSA+polish detected")
	}
	if o.KeyExhaustRatio() < 0.7 {
		t.Errorf("CSA+polish exhaustion %.2f", o.KeyExhaustRatio())
	}
}
