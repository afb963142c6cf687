package policy

// Edge-case tests against the extracted policy implementations: the live
// audit impounding the charger mid-campaign, progressive recruiting of
// emergent separators, and a target whose spoof window is irrecoverably
// missed. They wire the world/session/ledger layers directly, the same
// way the campaign composition root does.

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/session"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// testEnv wires the four layers for a policy test, mirroring the
// campaign composition root with its defaults. wpMut adjusts the run's
// knobs before anything runs.
func testEnv(t *testing.T, seed uint64, n int, chp mc.Params, wpMut func(*world.Params)) *Env {
	t.Helper()
	nw, _, err := trace.DefaultScenario(seed, n).Build()
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.New(nw.Sink(), chp)
	led := ledger.New()
	wp := world.Params{
		HorizonSec:       attack.DefaultHorizonSec,
		PollSec:          900,
		RequestFrac:      wrsn.DefaultRequestFraction,
		CooldownSec:      attack.DefaultCooldownSec,
		AuditEverySec:    24 * 3600,
		MinAuditSessions: 10,
		PendingGraceSec:  48 * 3600,
		Detectors:        detect.Suite(),
		Band:             wpt.DefaultSpoofBand(),
		BenignFailRate:   0.005,
	}
	if wpMut != nil {
		wpMut(&wp)
	}
	w := world.New(context.Background(), nw, led, wp, nil)
	r := rng.New(seed).Split("campaign")
	return &Env{
		W: w, L: led,
		A:         session.NewActor(w, ch, led, r, nil),
		Scheduler: charging.NJNP{},
		Rand:      r,
		Probe:     obs.Or(nil),
	}
}

// flagAfter is a deterministic test detector: it flags as soon as the
// audit holds at least n sessions.
type flagAfter struct{ n int }

func (flagAfter) Name() string                   { return "flag-after" }
func (d flagAfter) Score(a detect.Audit) float64 { return float64(len(a.Sessions)) }
func (d flagAfter) Threshold() float64           { return float64(d.n) }

// TestAttackerCaughtMidCampaign impounds the charger with a hair-trigger
// detector and checks the hand-over: auditing stops, the honest
// replacement takes over, and no spoof session starts after the catch.
func TestAttackerCaughtMidCampaign(t *testing.T) {
	env := testEnv(t, 42, 120, mc.DefaultParams(),
		func(wp *world.Params) {
			wp.AuditEverySec = 6 * 3600
			wp.MinAuditSessions = 1
			wp.Detectors = []detect.Detector{flagAfter{n: 3}}
		})
	p := NewAttacker(attack.SolverCSA)
	if err := Drive(env, p); err != nil {
		t.Fatal(err)
	}
	if !env.L.Caught {
		t.Fatal("hair-trigger detector never caught the attacker")
	}
	if env.L.CaughtBy != "flag-after" {
		t.Errorf("CaughtBy = %q, want flag-after", env.L.CaughtBy)
	}
	if env.L.CaughtAt >= env.W.Params().HorizonSec {
		t.Errorf("CaughtAt = %v, want before the horizon %v", env.L.CaughtAt, env.W.Params().HorizonSec)
	}
	if env.W.Auditing() {
		t.Error("auditing still armed after the impoundment")
	}
	if !p.st.Honest {
		t.Error("attacker never flipped to the honest replacement")
	}
	after := 0
	for _, s := range env.L.Sessions {
		if s.Start < env.L.CaughtAt {
			continue
		}
		after++
		if s.Kind == charging.SessionSpoof {
			t.Errorf("spoof session at t=%v after the catch at t=%v", s.Start, env.L.CaughtAt)
		}
	}
	if after == 0 {
		t.Error("honest replacement served nothing after the catch")
	}
}

// TestProgressiveRecruitsEmergentTargets runs the window-aware attacker
// in Progressive mode and checks that separators emerging mid-campaign
// join the target list (and are counted in the ledger).
func TestProgressiveRecruitsEmergentTargets(t *testing.T) {
	env := testEnv(t, 42, 150, mc.DefaultParams(),
		func(wp *world.Params) { wp.Progressive = true })
	p := NewAttacker(attack.SolverCSA)
	if err := Drive(env, p); err != nil {
		t.Fatal(err)
	}
	if env.L.ExtraTargets == 0 {
		t.Fatal("progressive attacker recruited no emergent targets")
	}
	planTargets := 0
	for _, stop := range p.st.Result.Plan.Schedule {
		if p.st.Instance.Sites[stop.Site].Mandatory {
			planTargets++
		}
	}
	if len(p.st.Engaged) != planTargets+env.L.ExtraTargets {
		t.Errorf("engaged %d targets, want plan-time %d + recruited %d",
			len(p.st.Engaged), planTargets, env.L.ExtraTargets)
	}
}

// TestMissedWindowDropsTarget checks the irrecoverably-late branch: when
// travel can no longer beat the victim's projected death, the target is
// abandoned and unblocked so ordinary service gets it back.
func TestMissedWindowDropsTarget(t *testing.T) {
	// A crawling charger makes every travel time astronomically larger
	// than any depletion forecast.
	chp := mc.DefaultParams()
	chp.SpeedMps = 1e-6
	env := testEnv(t, 42, 120, chp, nil)

	// Pick a node with a finite projected death — a loaded relay.
	var site attack.Site
	found := false
	nw := env.W.Network()
	for i := range nw.Len() {
		id := wrsn.NodeID(i)
		f, err := nw.ForecastAt(id, 0, env.W.Params().RequestFrac)
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(f.DeathAt, 1) {
			site = attack.Site{Node: id, Pos: nw.Pos(id), Dur: 4 * 3600, Mandatory: true, Kind: attack.VisitSpoof}
			found = true
			break
		}
	}
	if !found {
		t.Fatal("scenario has no node with a finite depletion forecast")
	}

	p := NewAttacker(attack.SolverCSA)
	p.st.Pending = []attack.Site{site}
	p.st.Engaged = []wrsn.NodeID{site.Node}
	p.st.Targets = []wrsn.NodeID{site.Node}
	p.st.Blocked = []wrsn.NodeID{site.Node}

	act, err := p.targetsAction(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := act.(Noop); !ok {
		t.Errorf("action = %T, want Noop", act)
	}
	if len(p.st.Pending) != 0 {
		t.Errorf("pending = %d targets, want the missed window dropped", len(p.st.Pending))
	}
	if slices.Contains(p.st.Blocked, site.Node) {
		t.Error("dropped target still blocked from genuine service")
	}
	if p.st.Phase != phCoverGuard {
		t.Errorf("phase = %d, want phCoverGuard", p.st.Phase)
	}
}
