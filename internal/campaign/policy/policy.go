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
package policy

import (
	"errors"
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

// Solver names accepted by the attack policies.
const (
	SolverCSA           = "CSA"
	SolverCSAPolished   = "CSA+polish"
	SolverRandom        = "Random"
	SolverGreedyNearest = "GreedyNearest"
	SolverDirect        = "Direct"
)

// ErrUnknownSolver reports an unrecognized solver name.
var ErrUnknownSolver = errors.New("campaign: unknown solver")

// planner is an attack planner; r feeds the randomized ones.
type planner func(in *attack.Instance, r *rng.Stream) (attack.Result, error)

// solvers is the one table of attack planners by solver name.
var solvers = map[string]planner{
	SolverCSA:           deterministic(attack.SolveCSA),
	SolverCSAPolished:   deterministic(attack.SolveCSAPolished),
	SolverRandom:        attack.SolveRandom,
	SolverGreedyNearest: deterministic(attack.SolveGreedyNearest),
	SolverDirect:        deterministic(attack.SolveDirect),
}

// deterministic adapts a planner that draws no randomness.
func deterministic(solve func(*attack.Instance) (attack.Result, error)) planner {
	return func(in *attack.Instance, _ *rng.Stream) (attack.Result, error) { return solve(in) }
}

// KnownSolver reports whether solver names an attack planner.
func KnownSolver(solver string) bool {
	_, ok := solvers[solver]
	return ok
}

// Solve dispatches to the named attack planner; r feeds the randomized
// ones.
func Solve(in *attack.Instance, solver string, r *rng.Stream) (attack.Result, error) {
	solve, ok := solvers[solver]
	if !ok {
		return attack.Result{}, fmt.Errorf("%w: %q", ErrUnknownSolver, solver)
	}
	return solve(in, r)
}

// WindowAware reports whether the solver's policy re-derives target
// windows live during execution (CSA and Direct's skeleton do; the
// baselines execute their schedule as planned).
func WindowAware(solver string) bool {
	return solver == SolverCSA || solver == SolverCSAPolished || solver == SolverDirect
}

// Env is the execution environment a policy acts in: the three lower
// layers plus the run's configuration and shared target bookkeeping.
type Env struct {
	W *world.W
	A *session.Actor
	L *ledger.L

	Horizon         float64
	PollSec         float64
	RequestFrac     float64
	CooldownSec     float64
	PendingGraceSec float64
	NoFill          bool
	Progressive     bool
	MaxCovers       int
	InstanceBudgetJ float64
	AuditEverySec   float64
	Scheduler       charging.Scheduler
	Rand            *rng.Stream
	Probe           obs.Probe

	// Targets holds the attack's spoof targets (empty for legit runs);
	// the opportunistic fill never genuinely serves them. Blocked holds
	// targets the attacker must not genuinely serve yet; a target leaves
	// the set once spoofed (a post-drift re-request gets a genuine charge
	// — the kill is lost, stealth is not) or once its window is
	// irrecoverably missed.
	Targets map[wrsn.NodeID]bool
	Blocked map[wrsn.NodeID]bool

	// Checkpoint, when set, is invoked at every handler-safe barrier of
	// the drive loop — the top of each action-loop iteration and after
	// each world step inside Wait advances (including the trailing
	// advance to the horizon). The hook must only read; a non-nil error
	// aborts the drive and propagates out of Drive/DriveResume. Nil
	// disables barriers with zero overhead on the action path.
	Checkpoint func(Barrier) error

	// view is PickFiltered's filtered queue, refilled per pick.
	view charging.Queue
}

// Barrier describes where in the drive loop a checkpoint hook fires, and
// carries exactly the loop position needed to resume there: the pending
// action result (loop barriers), the wait target (mid-wait barriers), or
// the final-advance flag.
type Barrier struct {
	// Prev is the Result that feeds the next NextAction call.
	Prev Result
	// InWait marks a barrier inside a hooked Wait advance; WaitUntil is
	// the advance target.
	InWait    bool
	WaitUntil float64
	// Final marks a barrier inside the trailing advance to the horizon.
	Final bool
}

// Stage names for ResumePoint (the serialized form of a Barrier position).
const (
	StageLoop  = "loop"
	StageWait  = "wait"
	StageFinal = "final"
)

// Stage returns the barrier's resume-stage name.
func (b Barrier) Stage() string {
	switch {
	case b.Final:
		return StageFinal
	case b.InWait:
		return StageWait
	default:
		return StageLoop
	}
}

// ResumePoint is the drive-loop position a checkpoint captured; it tells
// DriveResume where to re-enter.
type ResumePoint struct {
	Stage     string
	Prev      Result
	WaitUntil float64
}

// breakdownWait parks the charger through an open breakdown window: the
// policy waits for the scheduled repair (bounded by the horizon) before
// planning anything else. ok is false when the charger is operational or
// the horizon has been reached — the phase machine's own terminal logic
// must then run, or a never-repaired window would spin the action loop.
func (e *Env) breakdownWait() (Action, bool) {
	until := e.W.ChargerDownUntil()
	if until <= e.W.Now() || e.W.Now() >= e.Horizon {
		return nil, false
	}
	return Wait{Until: math.Min(until, e.Horizon)}, true
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
	OnArrival(e *Env, node *wrsn.Node) charging.SessionKind
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

// Exec advances the world.
func (a Wait) Exec(e *Env, _ Policy) (Result, error) {
	e.W.AdvanceTo(a.Until)
	return OK, nil
}

// Serve travels to the request's node and runs a full session there, of
// the kind the policy's OnArrival picks. Strict marks the legit baseline,
// where a vanished node or a power-model error is a run-aborting fault
// rather than a reason to move on.
type Serve struct {
	Req    charging.Request
	Strict bool
}

// Exec performs the serve skeleton shared by every on-demand loop.
func (a Serve) Exec(e *Env, pol Policy) (Result, error) {
	node, err := e.W.Network().Node(a.Req.Node)
	if err != nil {
		if a.Strict {
			return Stopped, err
		}
		e.W.Queue().Remove(a.Req.Node)
		return OK, nil
	}
	if !node.Alive() {
		e.W.Queue().Remove(a.Req.Node)
		return OK, nil
	}
	if err := e.A.TravelTo(node); err != nil {
		// Budget exhausted: the phase is over.
		return Stopped, nil
	}
	if !node.Alive() { // died while we were driving over
		e.W.Queue().Remove(a.Req.Node)
		return OK, nil
	}
	rate, err := e.A.Ch.DeliveredPower(node.Pos)
	if err != nil {
		if a.Strict {
			return Stopped, err
		}
		return Stopped, nil
	}
	need := node.Capacity() - node.Level()
	if pol.OnArrival(e, node) == charging.SessionSpoof {
		if _, err := e.A.Spoof(node, need/rate); err != nil {
			return Stopped, nil
		}
		return OK, nil
	}
	if _, err := e.A.Focus(node, need/rate); err != nil {
		return Stopped, nil
	}
	return OK, nil
}

// Fill serves the nearest pending non-blocked request that can be fully
// served in time to reach ReturnPos by Deadline; when no such request
// exists (or filling is disabled), the world advances one poll step
// bounded by FallbackCap instead.
type Fill struct {
	Deadline    float64
	ReturnPos   geom.Point
	FallbackCap float64
}

// Exec attempts one opportunistic fill, else waits a poll step.
func (a Fill) Exec(e *Env, _ Policy) (Result, error) {
	if e.NoFill || !fillOne(e, a.Deadline, a.ReturnPos) {
		// The fallback bound uses the post-attempt clock: a failed fill
		// may still have spent travel time.
		e.W.AdvanceTo(math.Min(a.FallbackCap, e.W.Now()+e.PollSec))
	}
	return OK, nil
}

// fillOne serves the nearest pending non-target request that can be fully
// served in time to reach returnPos by the deadline. It reports whether a
// session happened.
func fillOne(e *Env, deadline float64, returnPos geom.Point) bool {
	best := charging.Request{}
	found := false
	bestD := math.Inf(1)
	for _, req := range e.W.Queue().Pending() {
		node, err := e.W.Network().Node(req.Node)
		if err != nil || !node.Alive() || e.Blocked[req.Node] {
			continue
		}
		rate, err := e.A.Ch.DeliveredPower(node.Pos)
		if err != nil || rate <= 0 {
			continue
		}
		dock := e.A.Ch.ServicePoint(node.Pos)
		serveDur := (node.Capacity() - node.Level()) / rate
		finish := e.W.Now() + e.A.Ch.TravelTime(dock) + serveDur
		back := finish + node.Pos.Dist(returnPos)/e.A.Ch.Params().SpeedMps
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
	node, err := e.W.Network().Node(best.Node)
	if err != nil || !node.Alive() {
		e.W.Queue().Remove(best.Node)
		return false
	}
	if err := e.A.TravelTo(node); err != nil {
		return false
	}
	if !node.Alive() {
		e.W.Queue().Remove(best.Node)
		return false
	}
	rate, err := e.A.Ch.DeliveredPower(node.Pos)
	if err != nil {
		return false
	}
	need := node.Capacity() - node.Level()
	_, err = e.A.Focus(node, need/rate)
	return err == nil
}

// Drive executes a policy to completion: bootstrap, the initial request
// scan and sample, then the action loop until Done, an error, or
// cancellation, then the trailing advance to the horizon. The caller
// checks ctx.Err() afterwards and assembles the Outcome from the ledger.
//
// With Env.Checkpoint set, the loop additionally fires the hook at every
// barrier; a nil-returning hook leaves the executed action and event
// sequence identical to an unhooked drive, so checkpointing can never
// move a digest.
func Drive(e *Env, pol Policy) error {
	if err := pol.Bootstrap(e); err != nil {
		return err
	}
	e.W.Start()
	if err := driveLoop(e, pol, OK); err != nil {
		return err
	}
	return finalAdvance(e)
}

// DriveResume re-enters the drive loop of a restored run at the captured
// barrier: mid-final-advance runs only the trailing advance; mid-wait
// finishes the interrupted Wait then continues the loop; a loop barrier
// continues the loop with the captured pending result. Bootstrap and the
// initial scan/sample are never re-run — their effects are part of the
// restored state.
func DriveResume(e *Env, pol Policy, rp ResumePoint) error {
	switch rp.Stage {
	case StageFinal:
		return finalAdvance(e)
	case StageWait:
		if err := advanceHooked(e, rp.WaitUntil, rp.Prev); err != nil {
			return err
		}
		if err := driveLoop(e, pol, OK); err != nil {
			return err
		}
		return finalAdvance(e)
	case StageLoop:
		if err := driveLoop(e, pol, rp.Prev); err != nil {
			return err
		}
		return finalAdvance(e)
	default:
		return fmt.Errorf("policy: unknown resume stage %q", rp.Stage)
	}
}

// driveLoop is the action loop shared by Drive and DriveResume.
func driveLoop(e *Env, pol Policy, prev Result) error {
	for !e.W.Canceled() {
		if e.Checkpoint != nil {
			if err := e.Checkpoint(Barrier{Prev: prev}); err != nil {
				return err
			}
		}
		act, err := pol.NextAction(e, prev)
		if err != nil {
			return err
		}
		if _, done := act.(Done); done {
			break
		}
		if wait, ok := act.(Wait); ok && e.Checkpoint != nil {
			// Hook the wait's world steps so multi-hour idle advances
			// stay checkpointable; Wait.Exec always returns OK.
			if err := advanceHooked(e, wait.Until, prev); err != nil {
				return err
			}
			prev = OK
			continue
		}
		prev, err = act.Exec(e, pol)
		if err != nil {
			return err
		}
	}
	return nil
}

// advanceHooked advances the world to until, firing mid-wait barriers
// after each world step. prev is the result the interrupted loop will
// resume NextAction with — it rides in the barrier so a checkpoint taken
// here can re-enter exactly.
func advanceHooked(e *Env, until float64, prev Result) error {
	if e.Checkpoint == nil {
		e.W.AdvanceTo(until)
		return nil
	}
	return e.W.AdvanceToHook(until, func() error {
		return e.Checkpoint(Barrier{Prev: prev, InWait: true, WaitUntil: until})
	})
}

// finalAdvance runs the trailing advance to the horizon, hooked when a
// checkpoint hook is armed.
func finalAdvance(e *Env) error {
	if e.Checkpoint == nil {
		e.W.AdvanceTo(e.Horizon)
		return nil
	}
	return e.W.AdvanceToHook(e.Horizon, func() error {
		return e.Checkpoint(Barrier{Final: true})
	})
}

// BootstrapAttack is the shared planning step of both attack policies:
// build the TIDE instance against the time-zero topology, solve it with
// the named planner, mark every mandatory site as a blocked target, and
// arm the sink's live audit.
func BootstrapAttack(e *Env, solver string) (*attack.Instance, attack.Result, error) {
	in, err := attack.BuildInstance(e.W.Network(), e.A.Ch, attack.BuilderConfig{
		Now:         0,
		RequestFrac: e.RequestFrac,
		CooldownSec: e.CooldownSec,
		HorizonSec:  e.Horizon,
		MaxCovers:   e.MaxCovers,
		BudgetJ:     e.InstanceBudgetJ,
	})
	if err != nil {
		return nil, attack.Result{}, err
	}
	res, err := Solve(in, solver, e.Rand.Split("solver"))
	if err != nil {
		return nil, attack.Result{}, err
	}
	// Planning is over; executing the plan reads only the sites.
	in.ReleaseDistIndex()
	for _, s := range in.Sites {
		if s.Mandatory {
			e.Targets[s.Node] = true
		}
	}
	for id := range e.Targets {
		e.Blocked[id] = true
	}
	e.W.StartAuditing(e.AuditEverySec)
	return in, res, nil
}

// caught is the ledger shorthand the attack policies branch on.
func caught(e *Env) bool { return e.L.Caught }
