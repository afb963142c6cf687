package campaign

// Multi-charger fleet service — the capacity extension the WRSN charging
// literature motivates: beyond what one mobile charger can sustain, the
// operator deploys K chargers sharing the request queue. The fleet runs
// on the same world layer as the single-charger campaigns: the world owns
// the event engine, a self-ticking world event advances batteries,
// deaths, and requests, and each charger's dispatch/arrive/session-end
// handlers interleave on the engine. Handlers sync the world with
// CatchUp, the re-entrant-safe advance.
//
// Fleet events are keyed (kind + charger index) rather than closures, so
// the pending queue serializes into a live checkpoint and a restored
// engine re-binds the handlers and continues — see fleetRun, which holds
// exactly the per-charger state a closure used to capture.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/session"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/snapshot"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Fleet event kinds. The display names riding on the events
// ("world-tick", "dispatch", "idle-poll", "arrive", ...) are unchanged
// from the closure era so telemetry histograms keep their labels.
const (
	fleetTickKind     = "fleet.tick"
	fleetDispatchKind = "fleet.dispatch"
	fleetArriveKind   = "fleet.arrive"
	fleetEndKind      = "fleet.end"
)

// FleetOutcome reports a fleet run.
type FleetOutcome struct {
	// Chargers is the fleet size.
	Chargers int
	// DeadTotal, FirstDeathAt, RequestsIssued/Served and CoverUtilityJ
	// mirror the single-charger Outcome fields.
	DeadTotal      int
	FirstDeathAt   float64
	RequestsIssued int
	RequestsServed int
	CoverUtilityJ  float64
	// EnergySpentJ is the fleet's total energy use.
	EnergySpentJ float64
	// Audit carries the sink-side evidence (fleet-aggregated).
	Audit detect.Audit
	// BusyFrac is the mean fraction of the horizon each charger spent
	// traveling or radiating — the capacity-utilization statistic.
	BusyFrac float64

	// faults is the run's fault ledger, nil on fault-free runs;
	// unexported to keep fault-free digests byte-identical (see Outcome).
	faults *faults.Report
}

// FaultReport returns the fleet run's fault ledger, or nil when the run
// had no fault plan.
func (o *FleetOutcome) FaultReport() *faults.Report { return o.faults }

// fleetCh is one charger's in-flight assignment state — the fields the
// old closure handlers captured, now addressable so they checkpoint.
// Fields other than phase/req are meaningful only while EnRoute or
// Serving; they keep their last values while Idle (and checkpoint as
// such, which keeps resumed runs byte-identical to uninterrupted ones).
type fleetCh struct {
	phase       int // snapshot.FleetIdle / FleetEnRoute / FleetServing
	req         charging.Request
	rate        float64
	dur         float64
	start       float64
	meterBefore float64
	travelT     float64
	solicited   bool
}

// fleetRun is the fleet's runtime: the world, the chargers, their
// actors, and the shared dispatch bookkeeping.
type fleetRun struct {
	cfg      Config
	sched    charging.Scheduler
	nw       *wrsn.Network
	w        *world.W
	led      *ledger.L
	r        *rng.Stream
	chargers []*mc.Charger
	actors   []*session.Actor
	st       []fleetCh
	// reserved prevents two chargers from chasing one request.
	reserved map[wrsn.NodeID]bool
	busy     float64
	// view is the unreserved part of the queue, refilled per pick.
	view charging.Queue
}

// newFleetRun wires actors and binds the keyed fleet handlers on the
// world's engine. It schedules nothing: a fresh run seeds the tick and
// dispatch events itself, a resumed run restores the captured queue.
func newFleetRun(nw *wrsn.Network, chargers []*mc.Charger, cfg Config, sched charging.Scheduler, led *ledger.L, w *world.W, r *rng.Stream) *fleetRun {
	sp := sessionParams(cfg)
	f := &fleetRun{
		cfg: cfg, sched: sched, nw: nw, w: w, led: led, r: r,
		chargers: chargers,
		actors:   make([]*session.Actor, len(chargers)),
		st:       make([]fleetCh, len(chargers)),
		reserved: make(map[wrsn.NodeID]bool),
	}
	for i, ch := range chargers {
		f.actors[i] = session.NewActor(w, ch, led, r, sp, cfg.Probe)
	}
	eng := w.Engine()
	eng.Instrument(cfg.Probe)
	eng.Bind(fleetTickKind, func(e *sim.Engine, _ int) { f.tick(e) })
	eng.Bind(fleetDispatchKind, f.dispatch)
	eng.Bind(fleetArriveKind, f.arrive)
	eng.Bind(fleetEndKind, f.end)
	return f
}

// pick returns the scheduler's choice among unreserved requests.
func (f *fleetRun) pick(ch *mc.Charger) (charging.Request, bool) {
	f.view.Filter(f.w.Queue(), func(r charging.Request) bool { return !f.reserved[r.Node] })
	return f.sched.Next(&f.view, ch.Pos(), f.w.Now())
}

// tick advances batteries, deaths, and requests between fleet events.
func (f *fleetRun) tick(e *sim.Engine) {
	if f.w.Canceled() {
		return
	}
	f.w.CatchUp(e.Now())
	if e.Now() < f.cfg.HorizonSec {
		dt := math.Min(f.cfg.PollSec, f.cfg.HorizonSec-e.Now())
		_ = e.AfterKeyed(dt, fleetTickKind, 0, "world-tick")
	}
}

// dispatch executes one assignment attempt for charger idx.
func (f *fleetRun) dispatch(e *sim.Engine, idx int) {
	if f.w.Canceled() {
		return
	}
	w, ch := f.w, f.chargers[idx]
	w.CatchUp(e.Now())
	// A breakdown window grounds the whole depot: dispatch stands
	// down until the scheduled repair (in-flight sessions already
	// started are not suspended on the fleet path — only new
	// dispatches are gated).
	if until := w.ChargerDownUntil(); until > e.Now() {
		at := math.Min(until, f.cfg.HorizonSec)
		if at <= e.Now() {
			return // never repaired within the horizon: parked
		}
		_ = e.AtKeyed(at, fleetDispatchKind, idx, "breakdown-standby")
		return
	}
	req, ok := f.pick(ch)
	if !ok {
		_ = e.AfterKeyed(f.cfg.PollSec, fleetDispatchKind, idx, "idle-poll")
		return
	}
	node, err := f.nw.Node(req.Node)
	if err != nil || !node.Alive() {
		w.Queue().Remove(req.Node)
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "retry")
		return
	}
	f.reserved[req.Node] = true
	dock := ch.ServicePoint(node.Pos)
	travelT := ch.TravelTime(dock)
	if err := ch.Travel(dock); err != nil {
		// This charger is out of budget; it parks forever.
		delete(f.reserved, req.Node)
		return
	}
	s := &f.st[idx]
	s.phase = snapshot.FleetEnRoute
	s.req = req
	s.travelT = travelT
	_ = e.AfterKeyed(travelT, fleetArriveKind, idx, "arrive")
}

// arrive starts the charging session charger idx traveled for.
func (f *fleetRun) arrive(e *sim.Engine, idx int) {
	w, ch, s := f.w, f.chargers[idx], &f.st[idx]
	w.CatchUp(e.Now())
	s.phase = snapshot.FleetIdle // back to idle unless the session starts
	node, err := f.nw.Node(s.req.Node)
	if err != nil {
		delete(f.reserved, s.req.Node)
		return
	}
	if !node.Alive() {
		delete(f.reserved, s.req.Node)
		w.Queue().Remove(s.req.Node)
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
		return
	}
	rate, err := ch.DeliveredPower(node.Pos)
	if err != nil || rate <= 0 {
		delete(f.reserved, s.req.Node)
		return
	}
	need := node.Capacity() - node.Level()
	dur := need / rate
	if err := ch.SpendRadiation(dur); err != nil {
		delete(f.reserved, s.req.Node) // out of budget: parked
		return
	}
	f.busy += s.travelT + dur
	s.solicited = w.Queue().Has(node.ID)
	s.meterBefore = node.MeterRead()
	s.start = e.Now()
	s.rate = rate
	s.dur = dur
	s.phase = snapshot.FleetServing
	_ = e.AfterKeyed(dur, fleetEndKind, idx, "session-end")
}

// end closes charger idx's session and recycles the charger.
func (f *fleetRun) end(e *sim.Engine, idx int) {
	w, s := f.w, &f.st[idx]
	w.CatchUp(e.Now())
	delete(f.reserved, s.req.Node)
	s.phase = snapshot.FleetIdle
	node, err := f.nw.Node(s.req.Node)
	if err != nil {
		return
	}
	if !node.Alive() {
		// Died mid-session (was nearly empty on arrival);
		// nothing to record beyond the death itself.
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
		return
	}
	delivered := f.nw.Charge(node.ID, s.rate*s.dur)
	sess := charging.Session{
		Node: node.ID, Kind: charging.SessionFocus,
		Start: s.start, End: e.Now(),
		RequestedJ: s.req.NeedJ, DeliveredJ: delivered,
		MeterGainJ: node.MeterRead() - s.meterBefore,
	}
	f.actors[idx].Complete(node.ID, sess, true, s.solicited)
	_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
}

// captureState assembles the fleet half of a live checkpoint. Pure
// reads; charger order is slice order, reservations sort by node ID.
func (f *fleetRun) captureState() *snapshot.CampaignState {
	fs := &snapshot.FleetState{Busy: f.busy}
	if len(f.reserved) > 0 {
		ids := make([]wrsn.NodeID, 0, len(f.reserved))
		for id := range f.reserved {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		fs.Reserved = ids
	}
	fs.Chargers = make([]snapshot.FleetCharger, len(f.chargers))
	for i, ch := range f.chargers {
		s := f.st[i]
		fc := snapshot.FleetCharger{
			Charger: ch.State(), Phase: s.phase,
			Rate: s.rate, Dur: s.dur, Start: s.start,
			MeterBefore: s.meterBefore, TravelT: s.travelT,
			Solicited: s.solicited,
		}
		if s.phase != snapshot.FleetIdle {
			rs := world.RequestStateOf(s.req)
			fc.Req = &rs
		}
		fs.Chargers[i] = fc
	}
	return &snapshot.CampaignState{
		World:  f.w.State(),
		Ledger: ledger.StateOf(f.led),
		Rand:   f.r.State(),
		Fleet:  fs,
		Tour:   schedTour(f.sched),
	}
}

// fleetCheckpointer captures after engine events; the fleet has no
// policy drive loop, so every executed event is a barrier (handlers
// CatchUp first, so the world clock equals the engine clock).
type fleetCheckpointer struct {
	plan *CheckpointPlan
	f    *fleetRun
	last time.Time
}

func (c *fleetCheckpointer) afterEvent() error {
	if c.f.w.Canceled() {
		// A canceled handler returns without CatchUp; the world may lag
		// the engine, so this is not a capturable barrier. The pump
		// drains and the run reports ctx.Err().
		return nil
	}
	stop := c.plan.Stop != nil && c.plan.Stop()
	if !stop && c.plan.Every > 0 && time.Since(c.last) < c.plan.Every {
		return nil
	}
	snap, err := snapshot.CaptureLive(c.plan.Scenario, c.f.nw, nil, c.f.w.Engine(), c.f.captureState())
	if err != nil {
		return err
	}
	if err := c.plan.Sink(snap); err != nil {
		return err
	}
	c.last = time.Now()
	if stop {
		return ErrStopped
	}
	return nil
}

// pump runs the engine to the horizon, hooked when checkpointing.
func (f *fleetRun) pump() error {
	eng := f.w.Engine()
	if f.cfg.Checkpoint == nil {
		return eng.RunUntil(f.cfg.HorizonSec, 50_000_000)
	}
	ck := &fleetCheckpointer{plan: f.cfg.Checkpoint, f: f, last: time.Now()}
	return eng.RunUntilHook(f.cfg.HorizonSec, 50_000_000, func(string, string) error {
		return ck.afterEvent()
	})
}

// finish assembles the FleetOutcome after the pump drains.
func (f *fleetRun) finish(ctx context.Context) (*FleetOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, w, led := f.cfg, f.w, f.led
	out := &FleetOutcome{Chargers: len(f.chargers), FirstDeathAt: math.Inf(1)}
	w.CatchUp(cfg.HorizonSec)
	if !cfg.Faults.Empty() {
		w.CloseFaultWindows()
		rep := led.Faults
		out.faults = &rep
	}

	for _, req := range w.Queue().Pending() {
		led.Audit.Unserved = append(led.Audit.Unserved, detect.RequestObs{
			Node: req.Node, IssuedAt: req.IssuedAt, NeedJ: req.NeedJ,
		})
	}
	out.Audit = led.Audit
	out.RequestsIssued = led.Issued
	out.RequestsServed = led.Served
	out.FirstDeathAt = led.FirstDeath
	for _, s := range led.Sessions {
		out.CoverUtilityJ += s.Utility()
	}
	for _, ch := range f.chargers {
		out.EnergySpentJ += ch.Spent()
	}
	for _, n := range f.nw.Nodes() {
		// Dead means battery-exhausted; a hardware-failed node counts in
		// the fault report instead (identical on fault-free runs).
		if n.Depleted() {
			out.DeadTotal++
		}
	}
	out.BusyFrac = f.busy / (cfg.HorizonSec * float64(len(f.chargers)))
	if cfg.Probe.Enabled() {
		cfg.Probe.Set("fleet.chargers", float64(out.Chargers))
		cfg.Probe.Set("fleet.busy_frac", out.BusyFrac)
		cfg.Probe.Set("fleet.energy_spent_j", out.EnergySpentJ)
	}
	return out, nil
}

// RunLegitFleet simulates K honest chargers sharing the on-demand queue
// under the configured scheduler. Each charger, when free, takes the
// scheduler's pick, travels, serves the full recharge, and frees again;
// the event engine interleaves the fleet correctly. Deaths, requests and
// audits follow the same rules as the single-charger runs.
//
// The context is first-class: event handlers stop scheduling follow-up
// events once ctx is canceled, the event engine drains, and ctx.Err()
// is returned.
func RunLegitFleet(ctx context.Context, nw *wrsn.Network, chargers []*mc.Charger, cfg Config) (*FleetOutcome, error) {
	if len(chargers) == 0 {
		return nil, fmt.Errorf("campaign: fleet needs at least one charger")
	}
	sched, err := cfg.prepare()
	if err != nil {
		return nil, err
	}
	led := ledger.New()
	w := world.New(ctx, nw, led, worldParams(cfg), cfg.Probe)
	r := rng.New(cfg.Seed).Split("campaign")
	f := newFleetRun(nw, chargers, cfg, sched, led, w, r)
	eng := w.Engine()
	if err := eng.AtKeyed(0, fleetTickKind, 0, "world-tick"); err != nil {
		return nil, err
	}
	for i := range chargers {
		if err := eng.AtKeyed(0, fleetDispatchKind, i, "dispatch"); err != nil {
			return nil, err
		}
	}
	if err := f.pump(); err != nil {
		return nil, err
	}
	return f.finish(ctx)
}

// ResumeFleet continues a fleet campaign from a live checkpoint. As with
// Resume, cfg must carry the original run parameters (with a fresh fault
// plan built from the same faults.Spec); the restored run executes the
// exact event and draw sequence the uninterrupted run would have.
func ResumeFleet(ctx context.Context, snap *snapshot.Snapshot, cfg Config) (*FleetOutcome, error) {
	if snap == nil || !snap.Live() {
		return nil, fmt.Errorf("campaign: ResumeFleet needs a live snapshot")
	}
	cs := snap.Campaign()
	if cs.Fleet == nil {
		return nil, fmt.Errorf("campaign: snapshot holds a single-charger run; use Resume")
	}
	if len(cs.Fleet.Chargers) == 0 {
		return nil, fmt.Errorf("campaign: fleet checkpoint has no chargers")
	}
	sched, err := resumeSched(&cfg, cs)
	if err != nil {
		return nil, err
	}
	nw, _, _, err := snap.Fork()
	if err != nil {
		return nil, err
	}
	led := ledger.FromState(cs.Ledger)
	w, err := world.Resume(ctx, nw, led, worldParams(cfg), cfg.Probe, cs.World)
	if err != nil {
		return nil, err
	}
	chargers := make([]*mc.Charger, len(cs.Fleet.Chargers))
	for i, fc := range cs.Fleet.Chargers {
		ch, err := mc.FromState(fc.Charger)
		if err != nil {
			return nil, fmt.Errorf("campaign: resume charger %d: %w", i, err)
		}
		chargers[i] = ch
	}
	f := newFleetRun(nw, chargers, cfg, sched, led, w, rng.FromState(cs.Rand))
	f.busy = cs.Fleet.Busy
	for _, id := range cs.Fleet.Reserved {
		f.reserved[id] = true
	}
	for i, fc := range cs.Fleet.Chargers {
		s := &f.st[i]
		s.phase = fc.Phase
		s.rate, s.dur, s.start = fc.Rate, fc.Dur, fc.Start
		s.meterBefore, s.travelT = fc.MeterBefore, fc.TravelT
		s.solicited = fc.Solicited
		if fc.Req != nil {
			req, err := fc.Req.Request(nw)
			if err != nil {
				return nil, fmt.Errorf("campaign: resume charger %d assignment: %w", i, err)
			}
			s.req = req
		} else if fc.Phase != snapshot.FleetIdle {
			return nil, fmt.Errorf("campaign: charger %d checkpointed in phase %d without its assignment", i, fc.Phase)
		}
	}
	if err := w.Engine().RestorePending(snap.PendingEvents()); err != nil {
		return nil, err
	}
	if err := f.pump(); err != nil {
		return nil, err
	}
	return f.finish(ctx)
}
