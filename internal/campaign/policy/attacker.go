package policy

// The TIDE attacker as a phase machine. Window-aware planners (CSA, and
// Direct's skeleton) re-derive their windows live during execution: node
// deaths shift relay loads, so plan-time forecasts drift by hours over a
// multi-day campaign and a static schedule would miss. The window-unaware
// baselines execute their schedule as planned and handle re-requests
// naively — exactly the behavioral difference the detectors exploit.
//
// Phases: targets (aware) or static (unaware) executes the plan; cover
// keeps on-demand service running for the remaining horizon; wrap checks
// whether a live audit impounded the charger, in which case the honest
// phase simulates the operator's replacement serving everyone.

import (
	"math"
	"slices"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// appeaseMarginSec is how far before a pending request goes stale the
// attacker acts on it, covering travel plus a session.
const appeaseMarginSec = 3 * 3600

// appeaseFraction sizes the token charge relative to a full session: long
// enough to read as a genuine (if poor) service, short enough to barely
// postpone the victim's death.
const appeaseFraction = 0.15

// Attacker phases, as State.Phase records them.
const (
	phTargets    = iota // window-aware adaptive target execution
	phStatic            // window-unaware literal schedule execution
	phCoverGuard        // plan handled: choose cover service or wrap-up
	phCover             // on-demand cover service for the remaining horizon
	phWrap              // check whether a live audit impounded the charger
	phHonest            // the honest replacement serves everyone
)

// Attacker executes a TIDE plan produced by the named solver. It runs on
// its checkpoint form: st is the State CaptureState copies.
type Attacker struct {
	st          State
	windowAware bool
	// fill is the slot fillAction hands out.
	fill Fill
}

// NewAttacker returns the attack policy for the named solver; whether it
// tracks windows live follows from the solver family.
func NewAttacker(solver string) *Attacker {
	p := &Attacker{st: State{Policy: solver, Phase: phStatic}, windowAware: windowAware(solver)}
	if p.windowAware {
		p.st.Phase = phTargets
	}
	return p
}

// windowAware reports whether the solver's policy re-derives target
// windows live during execution (CSA and Direct's skeleton do; the
// baselines execute their schedule as planned).
func windowAware(solver string) bool {
	return solver == attack.SolverCSA || solver == attack.SolverCSAPolished || solver == attack.SolverDirect
}

// Name reports the solver driving this attacker.
func (p *Attacker) Name() string { return p.st.Policy }

// Planned returns the executed TIDE plan.
func (p *Attacker) Planned() *attack.Result { return p.st.Result }

// Bootstrap builds the TIDE instance against the time-zero topology,
// solves it with the attacker's planner, makes every mandatory site a
// blocked target, primes the window-aware target list, and arms the
// sink's live audit.
func (p *Attacker) Bootstrap(e *Env) error {
	cfg := e.W.Params()
	in, err := attack.BuildInstance(e.W.Network(), e.A.Ch, attack.BuilderConfig{
		Now:         0,
		RequestFrac: cfg.RequestFrac,
		CooldownSec: cfg.CooldownSec,
		HorizonSec:  cfg.HorizonSec,
		MaxCovers:   cfg.MaxCovers,
		BudgetJ:     cfg.InstanceBudgetJ,
	})
	if err != nil {
		return err
	}
	res, err := attack.Solve(in, p.st.Policy, e.Rand.Split("solver"))
	if err != nil {
		return err
	}
	p.st.Instance, p.st.Result = in, &res
	for _, s := range in.Sites {
		if s.Mandatory {
			p.st.Targets = insert(p.st.Targets, s.Node)
		}
	}
	p.st.Blocked = slices.Clone(p.st.Targets)
	if p.windowAware {
		for _, stop := range res.Plan.Schedule {
			if site := in.Sites[stop.Site]; site.Mandatory {
				p.st.Pending = append(p.st.Pending, site)
				p.st.Engaged = insert(p.st.Engaged, site.Node)
			}
		}
	}
	e.W.StartAuditing()
	return nil
}

// OnRequest rejects blocked targets during the window-aware target and
// cover phases (their kills are pending); everything else may be served.
// The window-unaware attacker accepts target requests — OnArrival turns
// them into spoofs.
func (p *Attacker) OnRequest(_ *Env, req charging.Request) bool {
	if p.windowAware && !p.st.Honest {
		return !has(p.st.Blocked, req.Node)
	}
	return true
}

// OnArrival answers a window-unaware attacker's target re-requests with
// yet another spoof; every other docking charges genuinely.
func (p *Attacker) OnArrival(_ *Env, id wrsn.NodeID) charging.SessionKind {
	if !p.windowAware && !p.st.Honest && has(p.st.Targets, id) {
		return charging.SessionSpoof
	}
	return charging.SessionFocus
}

// NextAction advances the phase machine.
func (p *Attacker) NextAction(e *Env, prev Result) (Action, error) {
	switch p.st.Phase {
	case phTargets:
		return p.targetsAction(e)
	case phStatic:
		return p.staticAction(e, prev)
	case phCoverGuard:
		// Plan handled: keep the cover by running on-demand service for
		// the remaining horizon — unless filling is ablated off or the
		// charger is already impounded.
		if !e.W.Params().NoFill && !caught(e) {
			p.st.Phase = phCover
		} else {
			p.st.Phase = phWrap
		}
		return Noop{}, nil
	case phCover:
		if prev == Stopped || e.W.Now() >= e.W.Params().HorizonSec || caught(e) {
			p.st.Phase = phWrap
			return Noop{}, nil
		}
		if act, ok := e.breakdownWait(); ok {
			return act, nil
		}
		req, ok := e.PickFiltered(func(r charging.Request) bool { return p.OnRequest(e, r) })
		if !ok {
			return e.pollWait(), nil
		}
		return Serve{Req: req}, nil
	case phWrap:
		if caught(e) {
			// The flagged charger is impounded; the operator deploys an
			// honest replacement that serves everyone, including
			// surviving targets.
			e.W.StopAuditing()
			p.st.Honest = true
			e.A.Ch.Reset()
			p.st.Phase = phHonest
			return Noop{}, nil
		}
		return Done{}, nil
	case phHonest:
		if prev == Stopped || e.W.Now() >= e.W.Params().HorizonSec {
			return Done{}, nil
		}
		if act, ok := e.breakdownWait(); ok {
			return act, nil
		}
		req, ok := e.PickFiltered(nil)
		if !ok {
			return e.pollWait(), nil
		}
		return Serve{Req: req}, nil
	}
	return Done{}, nil
}

// targetsAction executes the spoof targets adaptively: at every step it
// picks the target with the most urgent live window (last CooldownSec
// before its *current* projected death), serves cover requests while no
// window is due, and spoofs each target inside its window. Targets that
// drift out of danger (their relay load vanished with an upstream death)
// or die early are dropped.
func (p *Attacker) targetsAction(e *Env) (Action, error) {
	cfg := e.W.Params()
	if !(len(p.st.Pending) > 0 || cfg.Progressive) || caught(e) {
		p.st.Phase = phCoverGuard
		return Noop{}, nil
	}
	// A broken-down charger can neither spoof nor cover: park until
	// repair and re-derive every window against the post-repair world.
	if act, ok := e.breakdownWait(); ok {
		return act, nil
	}
	if cfg.Progressive {
		added := p.recruitEmergentTargets(e)
		e.L.ExtraTargets += added
		if len(p.st.Pending) == 0 {
			if e.W.Now() >= cfg.HorizonSec {
				p.st.Phase = phCoverGuard
				return Noop{}, nil
			}
			// Nothing to kill right now: serve covers and wait for the
			// topology to yield new separators.
			return p.fillAction(Fill{Deadline: e.W.Now() + cfg.PollSec, ReturnPos: e.A.Ch.Pos(), FallbackCap: cfg.HorizonSec}), nil
		}
	}
	bestIdx := -1
	var bestDepart float64
	bestAppease := false
	alivePending := p.st.Pending[:0]
	nw := e.W.Network()
	for _, s := range p.st.Pending {
		if !nw.Alive(s.Node) {
			continue // died before we got to it; still exhausted
		}
		f, err := nw.ForecastAt(s.Node, e.W.Now(), cfg.RequestFrac)
		if err != nil {
			return nil, err
		}
		if math.IsInf(f.DeathAt, 1) {
			// Drift saved it: no longer dies. Drop the target and let
			// ordinary service have it again.
			p.st.Blocked = remove(p.st.Blocked, s.Node)
			continue
		}
		travel := e.A.Ch.TravelTime(e.A.Ch.ServicePoint(nw.Pos(s.Node)))
		if e.W.Now()+travel >= f.DeathAt-s.Dur/2 {
			// Irrecoverably late: a spoof can no longer complete before
			// death. Give the kill up — a genuine serve on its pending
			// request keeps the telemetry clean, whereas letting it die
			// starved is exactly what the died-awaiting-charge detector
			// looks for.
			p.st.Blocked = remove(p.st.Blocked, s.Node)
			continue
		}
		alivePending = append(alivePending, s)
		// Strike as late as safely possible: the cooldown trick needs the
		// spoof after death−cooldown, but a late spoof also shrinks the
		// window in which post-spoof load drift could let the victim
		// outlive its cooldown and re-request.
		finalAt := math.Max(f.RequestAt, f.DeathAt-cfg.CooldownSec/2)
		appease := false
		// Slow-draining targets request long before they die; letting the
		// request age past the sink's patience is starvation evidence.
		// Appease such a request with a token partial charge before it
		// goes stale.
		if req, ok := e.W.Queue().Get(s.Node); ok {
			staleAt := req.IssuedAt + cfg.PendingGraceSec - appeaseMarginSec
			if staleAt < finalAt {
				finalAt = staleAt
				appease = true
			}
		}
		depart := finalAt - travel
		if bestIdx < 0 || depart < bestDepart {
			bestIdx, bestDepart, bestAppease = len(alivePending)-1, depart, appease
		}
	}
	p.st.Pending = alivePending
	if bestIdx < 0 {
		if !cfg.Progressive {
			p.st.Phase = phCoverGuard
			return Noop{}, nil
		}
		// Progressive mode: no viable target right now; the next pass
		// waits for the topology to yield new separators.
		return Noop{}, nil
	}
	if e.W.Now() < bestDepart {
		// No window due yet: keep the cover going, but stay free to make
		// the next departure.
		return p.fillAction(Fill{Deadline: bestDepart, ReturnPos: p.st.Pending[bestIdx].Pos, FallbackCap: bestDepart}), nil
	}
	site := p.st.Pending[bestIdx]
	if bestAppease {
		// Token service: clears the pending request and restarts its
		// cooldown; the victim's death slips a little, and the target
		// stays on the list for its real (final) spoof.
		return appeaseAction{site: site}, nil
	}
	p.st.Pending = slices.Delete(p.st.Pending, bestIdx, bestIdx+1)
	return spoofAction{site: site, pol: p}, nil
}

// fillAction returns f as an action held in the attacker's own slot:
// boxing a Fill value into an Action allocates, and the target phase
// hands one out at most decisions. The driver executes each action
// before it asks for the next, so one slot suffices.
func (p *Attacker) fillAction(f Fill) Action {
	p.fill = f
	return &p.fill
}

// staticAction executes the plan literally: travel to each stop, wait for
// its scheduled begin when early, and serve or spoof on arrival — no live
// window tracking, no waiting for solicitation. This is how a
// window-unaware attacker behaves, and it is what forecast drift and the
// provenance/zero-gain detectors punish.
func (p *Attacker) staticAction(e *Env, prev Result) (Action, error) {
	if prev == Stopped || p.st.Idx >= len(p.st.Result.Plan.Schedule) || caught(e) {
		p.st.Phase = phCoverGuard
		return Noop{}, nil
	}
	// Even the window-unaware attacker cannot execute a stop on a
	// broken-down charger; it resumes the literal schedule after repair.
	if act, ok := e.breakdownWait(); ok {
		return act, nil
	}
	stop := p.st.Result.Plan.Schedule[p.st.Idx]
	p.st.Idx++
	return staticStop{site: p.st.Instance.Sites[stop.Site], begin: stop.Begin}, nil
}

// recruitEmergentTargets (Progressive mode) recomputes the alive
// topology's separators and adds any not yet engaged to the pending list,
// blocked from genuine service like the originals. It returns how many
// joined.
func (p *Attacker) recruitEmergentTargets(e *Env) int {
	added := 0
	nw := e.W.Network()
	for _, k := range nw.KeyNodes() {
		if has(p.st.Engaged, k.ID) || !nw.Alive(k.ID) {
			continue
		}
		pos := nw.Pos(k.ID)
		rate, err := e.A.Ch.DeliveredPower(pos)
		if err != nil || rate <= 0 {
			continue
		}
		p.st.Engaged = insert(p.st.Engaged, k.ID)
		p.st.Blocked = insert(p.st.Blocked, k.ID)
		p.st.Targets = insert(p.st.Targets, k.ID)
		e.Probe.Event(obs.Event{T: e.W.Now(), Kind: "target.recruited", Node: int(k.ID), Value: float64(k.Severed)})
		p.st.Pending = append(p.st.Pending, attack.Site{
			Node:      k.ID,
			Pos:       pos,
			Dur:       nw.Capacity(k.ID) * (1 - e.W.Params().RequestFrac) / rate,
			Mandatory: true,
			Kind:      attack.VisitSpoof,
		})
		added++
	}
	return added
}

// appeaseAction performs a short genuine charge at a target whose pending
// request is about to look ignored: the request clears, the meter shows a
// real (small) gain, and the kill is merely postponed.
type appeaseAction struct{ site attack.Site }

// Exec travels and runs the token charge.
func (a appeaseAction) Exec(e *Env, _ Policy) (Result, error) {
	if err := e.A.TravelTo(a.site.Node); err != nil {
		return OK, nil // budget exhausted
	}
	if caught(e) || !e.W.Network().Alive(a.site.Node) {
		return OK, nil
	}
	if _, err := e.A.Focus(a.site.Node, a.site.Dur*appeaseFraction); err != nil {
		return Stopped, err
	}
	return OK, nil
}

// spoofAction travels to the victim and runs the spoof session, waiting
// for the victim's request first if forecast drift made the charger early
// (an uninvited session is what the unsolicited-session detector catches).
type spoofAction struct {
	site attack.Site
	pol  *Attacker
}

// Exec runs the spoof; on any conclusive outcome the target unblocks so a
// post-drift re-request gets a genuine charge instead of starving.
func (a spoofAction) Exec(e *Env, _ Policy) (Result, error) {
	if err := spoofTarget(e, a.site); err != nil {
		return Stopped, err
	}
	// Spoofed (or conclusively missed): if drift lets the victim
	// re-request, serve it genuinely rather than leave evidence.
	a.pol.st.Blocked = remove(a.pol.st.Blocked, a.site.Node)
	return OK, nil
}

func spoofTarget(e *Env, site attack.Site) error {
	nw := e.W.Network()
	if err := e.A.TravelTo(site.Node); err != nil {
		return nil // budget exhausted: the attack fizzles out
	}
	for !caught(e) && !e.W.Canceled() && nw.Alive(site.Node) && !e.W.Queue().Has(site.Node) {
		f, err := nw.ForecastAt(site.Node, e.W.Now(), e.W.Params().RequestFrac)
		if err != nil {
			return err
		}
		if math.IsInf(f.DeathAt, 1) || e.W.Now() >= f.DeathAt {
			return nil
		}
		e.W.AdvanceTo(math.Min(f.DeathAt, e.W.Now()+e.W.Params().PollSec), nil)
	}
	if caught(e) || !nw.Alive(site.Node) {
		return nil
	}
	// Session length: as long as a genuine recharge (the claim must look
	// right) but never outliving the victim's projected death.
	dur := site.Dur
	if drain := nw.DrainWatts(site.Node); drain > 0 {
		if life := nw.Level(site.Node) / drain; life < dur {
			dur = life
		}
	}
	_, err := e.A.Spoof(site.Node, dur)
	return err
}

// staticStop is one literal plan stop of the window-unaware attacker.
type staticStop struct {
	site  attack.Site
	begin float64
}

// Exec travels, waits for the scheduled begin, and serves or spoofs.
func (a staticStop) Exec(e *Env, _ Policy) (Result, error) {
	nw, id := e.W.Network(), a.site.Node
	if !nw.Alive(id) {
		return OK, nil
	}
	if err := e.A.TravelTo(id); err != nil {
		return Stopped, nil // budget exhausted
	}
	if e.W.Now() < a.begin {
		e.W.AdvanceTo(a.begin, nil)
	}
	if caught(e) || !nw.Alive(id) {
		return OK, nil
	}
	dur := a.site.Dur
	if drain := nw.DrainWatts(id); drain > 0 && a.site.Mandatory {
		if life := nw.Level(id) / drain; life < dur {
			dur = life
		}
	}
	if a.site.Mandatory {
		if _, err := e.A.Spoof(id, dur); err != nil {
			return Stopped, nil
		}
	} else {
		if _, err := e.A.Focus(id, dur); err != nil {
			return Stopped, nil
		}
	}
	return OK, nil
}
