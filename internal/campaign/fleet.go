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

// fleetCh is one charger's scheduler and its checkpointed assignment
// state, held as itself. Charger and Tour stay zero during the run: the
// live charger and the scheduler own them. Req is the in-flight
// assignment. The other fields are meaningful only while EnRoute or
// Serving; they keep their last values while Idle (and checkpoint as
// such, which keeps resumed runs byte-identical to uninterrupted ones).
type fleetCh struct {
	// sched is this charger's own scheduler, so a stateful one
	// (PeriodicTSP) plans each tour from the charger that walks it.
	sched charging.Scheduler
	snapshot.FleetCharger
}

// fleetRun is the fleet's runtime: the world, the chargers, their
// actors, and the shared dispatch bookkeeping.
type fleetRun struct {
	cfg      Config
	nw       *wrsn.Network
	w        *world.W
	led      *ledger.L
	r        *rng.Stream
	chargers []*mc.Charger
	actors   []*session.Actor
	st       []fleetCh
	// fs is the shared dispatch state, the fleet's checkpoint form: the
	// ascending Reserved node IDs (one per charger with an assignment in
	// flight, so two chargers never chase one request) and the Busy time
	// sum. Its Chargers stay nil; st holds them.
	fs snapshot.FleetState
	// view is the unreserved part of the queue, refilled per pick.
	view charging.Queue
}

// newFleetRun resolves each charger's scheduler, wires actors and binds
// the keyed fleet handlers on the world's engine. It schedules nothing: a
// fresh run seeds the tick and dispatch events itself, a resumed run
// restores the captured queue. cfg must be prepared.
func newFleetRun(nw *wrsn.Network, chargers []*mc.Charger, cfg Config, led *ledger.L, w *world.W, r *rng.Stream) (*fleetRun, error) {
	f := &fleetRun{
		cfg: cfg, nw: nw, w: w, led: led, r: r,
		chargers: chargers,
		actors:   make([]*session.Actor, len(chargers)),
		st:       make([]fleetCh, len(chargers)),
	}
	for i, ch := range chargers {
		sched, err := charging.ByName(cfg.Scheduler)
		if err != nil {
			return nil, err
		}
		f.st[i].sched = sched
		f.actors[i] = session.NewActor(w, ch, led, r, cfg.Probe)
	}
	eng := w.Engine()
	eng.Instrument(cfg.Probe)
	eng.Bind(fleetTickKind, func(e *sim.Engine, _ int) { f.tick(e) })
	eng.Bind(fleetDispatchKind, f.dispatch)
	eng.Bind(fleetArriveKind, f.arrive)
	eng.Bind(fleetEndKind, f.end)
	return f, nil
}

// pick returns charger idx's scheduler's choice among unreserved
// requests.
func (f *fleetRun) pick(idx int) (charging.Request, bool) {
	f.view.Filter(f.w.Queue(), func(r charging.Request) bool {
		_, reserved := slices.BinarySearch(f.fs.Reserved, r.Node)
		return !reserved
	})
	return f.st[idx].sched.Next(&f.view, f.chargers[idx].Pos(), f.w.Now())
}

// reserve marks id as some charger's assignment.
func (f *fleetRun) reserve(id wrsn.NodeID) {
	if i, found := slices.BinarySearch(f.fs.Reserved, id); !found {
		f.fs.Reserved = slices.Insert(f.fs.Reserved, i, id)
	}
}

// release frees id's reservation, if it holds one.
func (f *fleetRun) release(id wrsn.NodeID) {
	if i, found := slices.BinarySearch(f.fs.Reserved, id); found {
		f.fs.Reserved = slices.Delete(f.fs.Reserved, i, i+1)
	}
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
	req, ok := f.pick(idx)
	if !ok {
		_ = e.AfterKeyed(f.cfg.PollSec, fleetDispatchKind, idx, "idle-poll")
		return
	}
	if !f.nw.Alive(req.Node) {
		w.Queue().Remove(req.Node)
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "retry")
		return
	}
	f.reserve(req.Node)
	dock := ch.ServicePoint(f.nw.Pos(req.Node))
	travelT := ch.TravelTime(dock)
	if err := ch.Travel(dock); err != nil {
		// This charger is out of budget; it parks forever.
		f.release(req.Node)
		return
	}
	s := &f.st[idx]
	s.Phase = snapshot.FleetEnRoute
	if s.Req == nil {
		s.Req = new(charging.Request)
	}
	*s.Req = req
	s.TravelT = travelT
	_ = e.AfterKeyed(travelT, fleetArriveKind, idx, "arrive")
}

// arrive starts the charging session charger idx traveled for.
func (f *fleetRun) arrive(e *sim.Engine, idx int) {
	w, ch, s := f.w, f.chargers[idx], &f.st[idx]
	w.CatchUp(e.Now())
	s.Phase = snapshot.FleetIdle // back to idle unless the session starts
	id := s.Req.Node
	if !f.nw.Alive(id) {
		f.release(id)
		w.Queue().Remove(id)
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
		return
	}
	rate, err := ch.DeliveredPower(f.nw.Pos(id))
	if err != nil || rate <= 0 {
		f.release(id)
		return
	}
	need := f.nw.Capacity(id) - f.nw.Level(id)
	dur := need / rate
	if err := ch.SpendRadiation(dur); err != nil {
		f.release(id) // out of budget: parked
		return
	}
	f.fs.Busy += s.TravelT + dur
	s.Solicited = w.Queue().Has(id)
	s.MeterBefore = f.nw.MeterRead(id)
	s.Start = e.Now()
	s.Rate = rate
	s.Dur = dur
	s.Phase = snapshot.FleetServing
	_ = e.AfterKeyed(dur, fleetEndKind, idx, "session-end")
}

// end closes charger idx's session and recycles the charger.
func (f *fleetRun) end(e *sim.Engine, idx int) {
	w, s := f.w, &f.st[idx]
	w.CatchUp(e.Now())
	id := s.Req.Node
	f.release(id)
	s.Phase = snapshot.FleetIdle
	if !f.nw.Alive(id) {
		// Died mid-session (was nearly empty on arrival);
		// nothing to record beyond the death itself.
		_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
		return
	}
	delivered := f.nw.Charge(id, s.Rate*s.Dur)
	sess := charging.Session{
		Node: id, Kind: charging.SessionFocus,
		Start: s.Start, End: e.Now(),
		RequestedJ: s.Req.NeedJ, DeliveredJ: delivered,
		MeterGainJ: f.nw.MeterRead(id) - s.MeterBefore,
	}
	f.actors[idx].Complete(id, sess, true, s.Solicited)
	_ = e.AfterKeyed(1, fleetDispatchKind, idx, "next")
}

// captureState assembles the fleet half of a live checkpoint: a copy of
// the fleet state, with the chargers in slice order. Pure reads.
func (f *fleetRun) captureState() *snapshot.CampaignState {
	fs := f.fs
	fs.Reserved = append([]wrsn.NodeID(nil), f.fs.Reserved...)
	fs.Chargers = make([]snapshot.FleetCharger, len(f.chargers))
	for i, ch := range f.chargers {
		fc := f.st[i].FleetCharger
		fc.Charger = ch.State()
		fc.Tour = schedTour(f.st[i].sched)
		if fc.Phase == snapshot.FleetIdle {
			fc.Req = nil
		} else {
			req := *fc.Req
			fc.Req = &req
		}
		fs.Chargers[i] = fc
	}
	return &snapshot.CampaignState{
		World:  f.w.State(),
		Ledger: f.led.Clone(),
		Rand:   f.r.State(),
		Fleet:  &fs,
	}
}

// pump runs the engine to the horizon. When checkpointing, every
// executed event is a barrier: the fleet has no policy drive loop, and
// its handlers CatchUp first, so the world clock equals the engine clock.
func (f *fleetRun) pump() error {
	eng, plan := f.w.Engine(), f.cfg.Checkpoint
	var after func(string) error
	if plan != nil {
		last := time.Now()
		take := func() (*snapshot.Snapshot, error) {
			return snapshot.CaptureLive(plan.Scenario, f.nw, nil, eng, f.captureState())
		}
		after = func(string) error {
			if f.w.Canceled() {
				// A canceled handler returns without CatchUp; the world may
				// lag the engine, so this is not a capturable barrier. The
				// pump drains and the run reports ctx.Err().
				return nil
			}
			return plan.offer(&last, take)
		}
	}
	return eng.RunUntil(f.cfg.HorizonSec, 50_000_000, after)
}

// finish assembles the FleetOutcome after the pump drains.
func (f *fleetRun) finish(ctx context.Context) (*FleetOutcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg, w, led := f.cfg, f.w, f.led
	out := &FleetOutcome{Chargers: len(f.chargers), FirstDeathAt: math.Inf(1)}
	w.CatchUp(cfg.HorizonSec)
	out.faults = w.Close()
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
	for i := range f.nw.Len() {
		// Dead means battery-exhausted; a hardware-failed node counts in
		// the fault report instead (identical on fault-free runs).
		if f.nw.Depleted(wrsn.NodeID(i)) {
			out.DeadTotal++
		}
	}
	out.BusyFrac = f.fs.Busy / (cfg.HorizonSec * float64(len(f.chargers)))
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
	if _, err := cfg.prepare(); err != nil {
		return nil, err
	}
	led := ledger.New()
	w := world.New(ctx, nw, led, worldParams(cfg), cfg.Probe)
	r := rng.New(cfg.Seed).Split("campaign")
	f, err := newFleetRun(nw, chargers, cfg, led, w, r)
	if err != nil {
		return nil, err
	}
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
	if _, err := cfg.prepare(); err != nil {
		return nil, err
	}
	nw, _, _, err := snap.Fork()
	if err != nil {
		return nil, err
	}
	if err := validateFleet(cs.Fleet, nw); err != nil {
		return nil, fmt.Errorf("campaign: resume: fleet state %w", err)
	}
	led, err := restoreLedger(&cs.Ledger)
	if err != nil {
		return nil, err
	}
	w, err := world.Resume(ctx, nw, &led, worldParams(cfg), cfg.Probe, cs.World)
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
	f, err := newFleetRun(nw, chargers, cfg, &led, w, rng.FromState(cs.Rand))
	if err != nil {
		return nil, err
	}
	f.fs = *cs.Fleet
	f.fs.Chargers, f.fs.Reserved = nil, slices.Clone(cs.Fleet.Reserved)
	for i, fc := range cs.Fleet.Chargers {
		if fc.Req != nil {
			req, err := world.RestoreRequest(nw, *fc.Req)
			if err != nil {
				return nil, fmt.Errorf("campaign: resume charger %d assignment: %w", i, err)
			}
			fc.Req = &req
		} else if fc.Phase != snapshot.FleetIdle {
			return nil, fmt.Errorf("campaign: charger %d checkpointed in phase %d without its assignment", i, fc.Phase)
		}
		setTour(f.st[i].sched, fc.Tour)
		fc.Charger, fc.Tour = mc.State{}, nil
		f.st[i].FleetCharger = fc
	}
	if err := w.Engine().RestorePending(snap.PendingEvents()); err != nil {
		return nil, err
	}
	if err := f.pump(); err != nil {
		return nil, err
	}
	return f.finish(ctx)
}

// validateFleet reports the first field of a fleet checkpoint state that
// no run on nw reaches: a negative or non-finite Busy, which BusyFrac
// reports; a charger Phase other than idle, en route and serving; a
// non-finite session figure, or a negative Rate, Dur, TravelT or Start,
// which the resumed session would deliver, meter or count as busy time;
// and a Reserved list out of strictly ascending order, naming a node the
// network does not have, or longer than the fleet, which holds at most
// one reservation per charger.
func validateFleet(fs *snapshot.FleetState, nw *wrsn.Network) error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	if bad(fs.Busy) || fs.Busy < 0 {
		return fmt.Errorf("has Busy %v", fs.Busy)
	}
	if len(fs.Reserved) > len(fs.Chargers) {
		return fmt.Errorf("has %d Reserved nodes for %d chargers", len(fs.Reserved), len(fs.Chargers))
	}
	for i, id := range fs.Reserved {
		if i > 0 && id <= fs.Reserved[i-1] {
			return fmt.Errorf("has Reserved not strictly ascending at index %d", i)
		}
		if !nw.Has(id) {
			return fmt.Errorf("names node %d in Reserved, out of range [0,%d)", id, nw.Len())
		}
	}
	for i, c := range fs.Chargers {
		if c.Phase < snapshot.FleetIdle || c.Phase > snapshot.FleetServing {
			return fmt.Errorf("has Chargers[%d].Phase %d, out of range [%d,%d]", i, c.Phase, snapshot.FleetIdle, snapshot.FleetServing)
		}
		for _, f := range []struct {
			name string
			v    float64
			min  float64
		}{{"Rate", c.Rate, 0}, {"Dur", c.Dur, 0}, {"TravelT", c.TravelT, 0}, {"Start", c.Start, 0}, {"MeterBefore", c.MeterBefore, math.Inf(-1)}} {
			if bad(f.v) || f.v < f.min {
				return fmt.Errorf("has Chargers[%d].%s %v", i, f.name, f.v)
			}
		}
	}
	return nil
}
