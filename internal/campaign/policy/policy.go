// Package policy is the decision layer of a campaign: a Policy decides,
// one action at a time, what the charger does next — wait, serve a
// request, opportunistically fill, appease or spoof a target, execute a
// static plan stop, or finish — while the world, session, and ledger
// layers carry the mechanics. Three policies ship: the legitimate
// on-demand server (the no-attack baseline), the window-aware TIDE
// attacker (live window tracking, cover service, appeasement), and the
// window-unaware attacker (literal schedule execution, spoof-on-request).
//
// Extension contract: a Policy is a deterministic state machine.
// Bootstrap plans once at time zero; NextAction inspects the world and
// returns the next Action, receiving the previous action's result so
// budget exhaustion (Stopped) can drive phase changes; OnRequest filters
// which pending requests the serve path may pick; OnArrival chooses the
// session kind once the charger is docked. Policies must draw randomness
// only from Env.Rand (and only in a fixed order) to keep runs replayable.
// They read the run's knobs (horizon, poll step, request threshold,
// cooldown, grace age, audit cadence, fill and cover settings) from
// Env.W.Params(), the one knob set the world and session layers read
// too; the attackers plan through attack.Solve, the one planner table.
//
// Drive executes Done and Wait itself; their Exec methods never run.
// Every Wait, like the trailing advance to the horizon, is one world
// advance. When Env.Checkpoint is set, that same advance carries the
// checkpoint barrier as an argument, so a checkpointed run executes the
// plain run's code and captures only at points the plain run also
// passes.
//
// The attacker runs on its checkpoint form: it holds a State (phase
// machine, plan, and its target, blocked and engaged lists as ascending
// node IDs), CaptureState copies it, and FromState validates a
// checkpoint's State and adopts a copy.
package policy

import (
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/attack"
	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/session"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Env is the execution environment a policy acts in: the three lower
// layers plus the run's scheduler and stream. The run's knobs are the
// world's: policies read them through W.Params().
type Env struct {
	W *world.W
	A *session.Actor
	L *ledger.L

	Scheduler charging.Scheduler
	Rand      *rng.Stream
	Probe     obs.Probe

	// Checkpoint, when set, is invoked at every handler-safe barrier of
	// the drive loop — the top of each action-loop iteration and after
	// each world step of a Wait's advance or of the trailing advance to
	// the horizon. Set or nil, the loop runs the same code: the barriers
	// ride the one world advance (world.W.AdvanceTo) as an argument,
	// which is nil when Checkpoint is. The hook must only read; a non-nil
	// error aborts the drive and propagates out of Drive/DriveResume.
	Checkpoint func(Barrier) error

	// view is PickFiltered's filtered queue, refilled per pick.
	view charging.Queue
}

// Barrier is a drive-loop position: where a checkpoint hook fires, and
// exactly what DriveResume needs to re-enter there.
type Barrier struct {
	// Stage is StageLoop (the top of an action-loop iteration), StageWait
	// (inside a Wait's advance) or StageFinal (inside the trailing
	// advance to the horizon).
	Stage string
	// Prev is the Result that feeds the next NextAction call.
	Prev Result
	// WaitUntil is the advance target of a StageWait barrier.
	WaitUntil float64
}

// Barrier stages, as State.Stage records them.
const (
	StageLoop  = "loop"
	StageWait  = "wait"
	StageFinal = "final"
)

// breakdownWait parks the charger through an open breakdown window: the
// policy waits for the scheduled repair (bounded by the horizon) before
// planning anything else. ok is false when the charger is operational or
// the horizon has been reached — the phase machine's own terminal logic
// must then run, or a never-repaired window would spin the action loop.
func (e *Env) breakdownWait() (Action, bool) {
	until, horizon := e.W.ChargerDownUntil(), e.W.Params().HorizonSec
	if until <= e.W.Now() || e.W.Now() >= horizon {
		return nil, false
	}
	return Wait{Until: math.Min(until, horizon)}, true
}

// pollWait waits one poll step, bounded by the horizon.
func (e *Env) pollWait() Wait {
	p := e.W.Params()
	return Wait{Until: math.Min(p.HorizonSec, e.W.Now()+p.PollSec)}
}

// PickLive runs the scheduler over the live queue (legit service mutates
// nothing, so the view is the queue itself).
func (e *Env) PickLive() (charging.Request, bool) {
	return e.Scheduler.Next(e.W.Queue(), e.A.Ch.Pos(), e.W.Now())
}

// PickFiltered runs the scheduler over a queue view without requests the
// policy's OnRequest hook rejects.
func (e *Env) PickFiltered(keep func(charging.Request) bool) (charging.Request, bool) {
	e.view.Filter(e.W.Queue(), keep)
	return e.Scheduler.Next(&e.view, e.A.Ch.Pos(), e.W.Now())
}

// Result is what an executed Action reports back into NextAction.
type Result int

const (
	// OK: the action ran (possibly as a no-op); pick the next one.
	OK Result = iota
	// Stopped: the action could not proceed (budget exhaustion, a failed
	// session) and the current service phase is over. Policies translate
	// Stopped into a phase change or Done.
	Stopped
)

// Policy decides a campaign's actions. See the package comment for the
// extension contract.
type Policy interface {
	// Name identifies the policy in the Outcome ("legit" or the solver).
	Name() string
	// Bootstrap plans at time zero, before the first request scan.
	Bootstrap(e *Env) error
	// NextAction returns the next action, or Done to finish. prev is the
	// result of the previously executed action (OK initially).
	NextAction(e *Env, prev Result) (Action, error)
	// OnRequest reports whether the serve path may pick this request.
	OnRequest(e *Env, req charging.Request) bool
	// OnArrival chooses the session kind once the charger is docked at
	// the node; the serve executor honors it.
	OnArrival(e *Env, id wrsn.NodeID) charging.SessionKind
	// Planned returns the TIDE plan executed, nil for legit service.
	Planned() *attack.Result
}

// An Action is one unit of charger behavior; Exec runs it against the Env.
type Action interface {
	Exec(e *Env, pol Policy) (Result, error)
}

// Done finishes the policy; Drive stops issuing actions.
type Done struct{}

// Exec never runs — Drive intercepts Done.
func (Done) Exec(*Env, Policy) (Result, error) { return OK, nil }

// Noop yields back to the driver without acting, re-entering NextAction
// (used by phase transitions that must re-check cancellation first).
type Noop struct{}

// Exec does nothing.
func (Noop) Exec(*Env, Policy) (Result, error) { return OK, nil }

// Wait advances the world clock to Until.
type Wait struct{ Until float64 }

// Exec never runs — Drive advances the world for a Wait itself, so the
// advance can carry the checkpoint barrier.
func (Wait) Exec(*Env, Policy) (Result, error) { return OK, nil }

// Serve travels to the request's node and runs a full session there, of
// the kind the policy's OnArrival picks. Strict marks the legit baseline,
// where a power-model error is a run-aborting fault rather than a reason
// to move on.
type Serve struct {
	Req    charging.Request
	Strict bool
}

// Exec performs the serve skeleton shared by every on-demand loop.
func (a Serve) Exec(e *Env, pol Policy) (Result, error) {
	nw, id := e.W.Network(), a.Req.Node
	if !nw.Alive(id) {
		e.W.Queue().Remove(id)
		return OK, nil
	}
	if err := e.A.TravelTo(id); err != nil {
		// Budget exhausted: the phase is over.
		return Stopped, nil
	}
	if !nw.Alive(id) { // died while we were driving over
		e.W.Queue().Remove(id)
		return OK, nil
	}
	rate, err := e.A.Ch.DeliveredPower(nw.Pos(id))
	if err != nil {
		if a.Strict {
			return Stopped, err
		}
		return Stopped, nil
	}
	need := nw.Capacity(id) - nw.Level(id)
	if pol.OnArrival(e, id) == charging.SessionSpoof {
		if _, err := e.A.Spoof(id, need/rate); err != nil {
			return Stopped, nil
		}
		return OK, nil
	}
	if _, err := e.A.Focus(id, need/rate); err != nil {
		return Stopped, nil
	}
	return OK, nil
}

// Fill serves the nearest pending request the policy's OnRequest accepts
// that can be fully served in time to reach ReturnPos by Deadline; when
// no such request exists (or filling is disabled), the world advances one
// poll step bounded by FallbackCap instead.
type Fill struct {
	Deadline    float64
	ReturnPos   geom.Point
	FallbackCap float64
}

// Exec attempts one opportunistic fill, else waits a poll step.
func (a Fill) Exec(e *Env, pol Policy) (Result, error) {
	p := e.W.Params()
	if p.NoFill || !fillOne(e, pol, a.Deadline, a.ReturnPos) {
		// The fallback bound uses the post-attempt clock: a failed fill
		// may still have spent travel time.
		e.W.AdvanceTo(math.Min(a.FallbackCap, e.W.Now()+p.PollSec), nil)
	}
	return OK, nil
}

// fillOne serves the nearest pending request pol accepts (the attacker
// rejects its blocked targets) that can be fully served in time to reach
// returnPos by the deadline. It reports whether a session happened.
func fillOne(e *Env, pol Policy, deadline float64, returnPos geom.Point) bool {
	nw := e.W.Network()
	best := charging.Request{}
	found := false
	bestD := math.Inf(1)
	for _, req := range e.W.Queue().Pending() {
		if !nw.Alive(req.Node) || !pol.OnRequest(e, req) {
			continue
		}
		pos := nw.Pos(req.Node)
		rate, err := e.A.Ch.DeliveredPower(pos)
		if err != nil || rate <= 0 {
			continue
		}
		dock := e.A.Ch.ServicePoint(pos)
		serveDur := (nw.Capacity(req.Node) - nw.Level(req.Node)) / rate
		finish := e.W.Now() + e.A.Ch.TravelTime(dock) + serveDur
		back := finish + pos.Dist(returnPos)/e.A.Ch.Params().SpeedMps
		if back > deadline {
			continue
		}
		if d := e.A.Ch.Pos().Dist2(req.Pos); d < bestD {
			best, bestD, found = req, d, true
		}
	}
	if !found {
		return false
	}
	id := best.Node
	if err := e.A.TravelTo(id); err != nil {
		return false
	}
	if !nw.Alive(id) {
		e.W.Queue().Remove(id)
		return false
	}
	rate, err := e.A.Ch.DeliveredPower(nw.Pos(id))
	if err != nil {
		return false
	}
	need := nw.Capacity(id) - nw.Level(id)
	_, err = e.A.Focus(id, need/rate)
	return err == nil
}

// Drive executes a policy to completion: bootstrap, the initial request
// scan and sample, then the action loop until Done, an error, or
// cancellation, then the trailing advance to the horizon. The caller
// checks ctx.Err() afterwards and assembles the Outcome from the ledger.
//
// With Env.Checkpoint set, the same loop and the same advances also fire
// the hook at every barrier; a nil-returning hook leaves the executed
// action and event sequence identical to an unhooked drive, so
// checkpointing can never move a digest.
func Drive(e *Env, pol Policy) error {
	if err := pol.Bootstrap(e); err != nil {
		return err
	}
	e.W.Start()
	return DriveResume(e, pol, Barrier{Stage: StageLoop})
}

// DriveResume enters the drive loop at barrier b — a restored run at its
// captured barrier, or Drive at the first loop barrier: mid-final-advance
// runs only the trailing advance; mid-wait finishes the interrupted Wait
// then continues the loop; a loop barrier continues the loop with the
// pending result. Bootstrap and the initial scan/sample are never run
// here — on resume their effects are part of the restored state.
func DriveResume(e *Env, pol Policy, b Barrier) error {
	var err error
	switch b.Stage {
	case StageFinal:
		// Only the trailing advance remains.
	case StageWait:
		err = e.advance(b.WaitUntil, b)
		if err == nil {
			err = driveLoop(e, pol, OK)
		}
	case StageLoop:
		err = driveLoop(e, pol, b.Prev)
	default:
		return fmt.Errorf("policy: unknown resume stage %q", b.Stage)
	}
	if err != nil {
		return err
	}
	return e.advance(e.W.Params().HorizonSec, Barrier{Stage: StageFinal})
}

// driveLoop is DriveResume's action loop. A Wait runs through advance
// whether or not Checkpoint is set; prev rides in its barrier so a
// checkpoint taken mid-wait re-enters exactly.
func driveLoop(e *Env, pol Policy, prev Result) error {
	for !e.W.Canceled() {
		if e.Checkpoint != nil {
			if err := e.Checkpoint(Barrier{Stage: StageLoop, Prev: prev}); err != nil {
				return err
			}
		}
		act, err := pol.NextAction(e, prev)
		if err != nil {
			return err
		}
		switch a := act.(type) {
		case Done:
			return nil
		case Wait:
			err = e.advance(a.Until, Barrier{Stage: StageWait, Prev: prev, WaitUntil: a.Until})
			prev = OK
		default:
			prev, err = act.Exec(e, pol)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// advance moves the world to until, the one advance of the drive loop's
// waits and of the trailing advance. With Checkpoint set the hook fires
// as b after every world step, so multi-hour idle advances stay
// checkpointable; without it no barrier is built.
func (e *Env) advance(until float64, b Barrier) error {
	var barrier func() error
	if e.Checkpoint != nil {
		barrier = func() error { return e.Checkpoint(b) }
	}
	return e.W.AdvanceTo(until, barrier)
}

// caught is the ledger shorthand the attack policies branch on.
func caught(e *Env) bool { return e.L.Caught }
