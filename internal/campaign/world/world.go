// Package world is the environment layer of a campaign: it owns the
// virtual clock, battery drain, death recording, routing recomputation,
// charging-request scanning, lifetime sampling, and the sink's live
// detector audits. Time advancement is hosted on the discrete-event
// engine in internal/sim: AdvanceTo schedules a self-rescheduling chain
// of "world.step" events (each landing on the next poll boundary or
// battery-depletion instant, whichever is sooner) and pumps the engine,
// so single-charger campaigns and the multi-charger fleet share one
// event-driven clock. Handlers that already run inside the engine use
// CatchUp, the re-entrant-safe synchronous form of the same stepping.
//
// The world writes what it observes into the shared ledger; it never
// decides anything — policies do that one layer up.
package world

import (
	"context"
	"math"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Request retransmission backoff: a node whose charging request was lost
// retries at the next step boundary after retxBaseSec·2^attempt seconds,
// capped at retxCapSec — the deadline-driven charging literature's
// standard answer to unreliable request delivery.
const (
	retxBaseSec = 900.0
	retxCapSec  = 4 * 3600.0
)

// Params is the one set of prepared run knobs. The world reads the
// cadences and audit rules; the session and policy layers above it read
// the rest through Params, so the network's threshold, the sink's audit
// and the attacker's spoof windows all see the same numbers.
type Params struct {
	// HorizonSec is the simulated duration.
	HorizonSec float64
	// PollSec bounds the step granularity of the clock.
	PollSec float64
	// RequestFrac is the battery fraction that triggers charging requests.
	RequestFrac float64
	// CooldownSec is the post-session re-request suppression.
	CooldownSec float64
	// SampleEverySec is the lifetime-sampling cadence; non-positive off.
	SampleEverySec float64
	// AuditEverySec is the live-audit cadence; negative disables live
	// audits entirely (judgment happens only at the horizon).
	AuditEverySec float64
	// MinAuditSessions delays live audits until enough evidence exists.
	MinAuditSessions int
	// PendingGraceSec is how long a pending request may age before a live
	// audit counts it as ignored.
	PendingGraceSec float64
	// Detectors is the audit suite consulted by live audits.
	Detectors []detect.Detector
	// Faults is the fault plan to compile onto the engine; nil or empty
	// leaves the run byte-identical to a fault-free one.
	Faults *faults.Plan

	// The knobs below are read only by the session and policy layers.

	// NoFill makes the attacker execute only its planned stops.
	NoFill bool
	// Progressive lets the attacker recruit key nodes that emerge
	// mid-campaign.
	Progressive bool
	// MaxCovers caps the TIDE instance's optional sites.
	MaxCovers int
	// InstanceBudgetJ overrides the TIDE instance budget; non-positive
	// uses the charger's remaining energy.
	InstanceBudgetJ float64
	// Band is the spoofing RF band.
	Band wpt.SpoofBand
	// BenignFailRate is the probability a genuine session delivers
	// nothing (misdocking, obstruction).
	BenignFailRate float64
	// SingleEmitter ablates the superposition primitive: spoof sessions
	// degenerate into genuine charges.
	SingleEmitter bool
	// Defense enables the countermeasure extensions.
	Defense defense.Config
}

// W is the mutable world of one campaign run.
type W struct {
	ctx   context.Context
	eng   *sim.Engine
	nw    *wrsn.Network
	led   *ledger.L
	p     Params
	probe obs.Probe

	// st is the world's checkpointed state, held as itself: capture
	// copies it and Resume adopts it.
	st State
	qu charging.Queue
	// low is the request scan's candidate list, reused every step and
	// sized for every node once.
	low []wrsn.NodeID
	// keySet is a dense per-node table (node IDs are the contiguous
	// 0..n-1 range); false means "not a key node".
	keySet []bool
	// plan is nil on fault-free runs; the fault fields of st then stay
	// zero and cost nothing on the hot path.
	plan *faults.Plan
}

// New builds a world over the network, writing into led. The world owns a
// fresh event engine; callers needing engine telemetry instrument it via
// Engine(). A non-empty fault plan in p compiles onto the engine here, so
// fault events carry lower sequence numbers than any world step scheduled
// later — at equal timestamps the fault applies first. The network's
// request fraction is set to p.RequestFrac, which its low set tracks.
func New(ctx context.Context, nw *wrsn.Network, led *ledger.L, p Params, probe obs.Probe) *W {
	w := build(ctx, nw, led, p, probe)
	if w.plan != nil {
		// ErrPast is impossible here: the engine clock is zero and plan
		// events are non-negative.
		_ = faults.Compile(w.plan, w.eng, w.faultHooks())
	}
	return w
}

// build is the construction New and Resume share: the world at clock
// zero on a fresh engine with the step chain bound, and the dense
// per-node tables sized for the network. It schedules nothing and binds
// no fault handler; New compiles the fault plan, Resume only binds it.
func build(ctx context.Context, nw *wrsn.Network, led *ledger.L, p Params, probe obs.Probe) *W {
	n := nw.Len()
	nw.SetRequestFraction(p.RequestFrac)
	w := &W{
		ctx:    ctx,
		eng:    sim.New(),
		nw:     nw,
		led:    led,
		p:      p,
		probe:  obs.Or(probe),
		st:     State{Cool: make([]float64, n)},
		qu:     charging.NewQueue(n),
		keySet: make([]bool, n),
		low:    make([]wrsn.NodeID, 0, n),
	}
	w.bindStep()
	if !p.Faults.Empty() {
		w.plan = p.Faults
		w.st.RetxAttempt = make([]int, n)
		w.st.RetxNext = make([]float64, n)
	}
	return w
}

// faultHooks routes the fault plan's events to the world's handlers.
// Each method value allocates, so a fault-free run never builds them.
func (w *W) faultHooks() faults.Hooks {
	return faults.Hooks{
		Sync:        w.CatchUp,
		NodeDown:    w.failNode,
		NodeUp:      w.repairNode,
		ChargerDown: w.chargerDown,
		ChargerUp:   w.chargerUp,
		SinkDown:    w.sinkOutage,
		SinkUp:      w.sinkRestore,
	}
}

// stepKind is the keyed-event kind of the world's step chain. Keyed
// scheduling makes a pending step serializable into a live snapshot and
// re-bindable on resume.
const stepKind = "world.step"

// bindStep registers the step-chain handler. CatchUp, not a bare step: a
// same-pump fault handler may already have advanced the world past this
// event's boundary (its Sync hook calls CatchUp), and after any such
// re-entrancy the world clock must land exactly on engine-now before
// rescheduling, or the next At would be in the past and kill the chain.
// With no faults w.st.Now is exactly one step behind e.Now() and CatchUp
// performs the identical single step.
func (w *W) bindStep() {
	w.eng.Bind(stepKind, func(e *sim.Engine, _ int) {
		w.CatchUp(e.Now())
		w.scheduleStep(w.st.StepTarget)
	})
}

// Now returns the world clock in seconds.
func (w *W) Now() float64 { return w.st.Now }

// Engine exposes the event engine (the fleet schedules its charger
// handlers on it; tests and telemetry instrument it).
func (w *W) Engine() *sim.Engine { return w.eng }

// Params returns the run's knobs. The layers above read them here.
func (w *W) Params() *Params { return &w.p }

// Network returns the live network.
func (w *W) Network() *wrsn.Network { return w.nw }

// Queue returns the live request queue.
func (w *W) Queue() *charging.Queue { return &w.qu }

// Canceled reports whether the run's context has been canceled; the
// stepping loops treat it as an immediate stop signal.
func (w *W) Canceled() bool { return w.ctx.Err() != nil }

// MarkKey registers a plan-time key node for lifetime sampling.
func (w *W) MarkKey(id wrsn.NodeID) { w.keySet[id] = true }

// SetCooldown suppresses re-requests from id until the given time.
func (w *W) SetCooldown(id wrsn.NodeID, until float64) { w.st.Cool[id] = until }

// StartAuditing arms the sink's periodic live audit, its first boundary
// at AuditEverySec.
func (w *W) StartAuditing() {
	w.st.Auditing = true
	w.st.NextAudit = w.p.AuditEverySec
}

// StopAuditing disarms live audits (the impounded charger's honest
// replacement is beyond suspicion).
func (w *W) StopAuditing() { w.st.Auditing = false }

// Auditing reports whether live audits are armed.
func (w *W) Auditing() bool { return w.st.Auditing }

// step moves the clock one boundary toward target: the next poll tick or
// the next battery depletion, whichever is sooner. Batteries drain, deaths
// are recorded, routing recomputes on topology change, and new requests,
// samples, and audits are taken at the boundary.
//
// The drain is the network's lazy one (wrsn.Network.AdvanceEnergy): a
// step syncs only the nodes that can die or cross the request threshold
// in it, plus the forecast's candidates, so its cost follows the events
// rather than the node count.
func (w *W) step(target float64) {
	step := w.boundary(target)
	died := w.nw.AdvanceEnergy(step - w.st.Now)
	w.st.Now = step
	if len(died) > 0 {
		for _, id := range died {
			w.RecordDeath(id)
		}
		w.nw.Recompute()
	}
	w.scanRequests()
	w.Sample()
	w.audit()
	// Energy-aware routing responds to battery levels, not just deaths;
	// refresh it at step granularity so load actually shifts off draining
	// relays.
	if w.nw.Policy() == wrsn.PolicyEnergyAware {
		w.nw.Recompute()
	}
}

// boundary is the next step boundary toward target: the target, the
// next poll tick, or the forecast's next depletion when that is later
// than now, whichever is soonest.
func (w *W) boundary(target float64) float64 {
	next := min(target, w.st.Now+w.p.PollSec)
	if dt, _ := w.nw.NextDepletion(w.st.Now); dt > w.st.Now && dt < next {
		next = dt
	}
	return next
}

// AdvanceTo moves the world clock to t through the event engine: each
// step boundary is an engine event, and the engine is pumped until t. A
// canceled context stops the advance at the current boundary. AdvanceTo
// must not be called from inside an engine handler — use CatchUp there.
//
// barrier, when non-nil, is the checkpoint barrier: it is called after
// every executed world-step event, the points where no handler is
// mid-flight and the world clock equals the engine clock. A non-nil
// error from it stops the advance and is returned. The events executed
// do not depend on barrier, and with a nil barrier AdvanceTo always
// returns nil.
func (w *W) AdvanceTo(t float64, barrier func() error) error {
	if t <= w.st.Now {
		return nil
	}
	w.armStep(t)
	var after func(kind string) error
	if barrier != nil {
		after = func(kind string) error {
			if kind != stepKind {
				return nil
			}
			return barrier()
		}
	}
	return w.eng.RunUntil(t, 0, after)
}

// armStep points the step chain at target. On a fresh advance no chain
// event is pending and one is scheduled; on the first advance after a
// resume the restored queue already carries the chain's next event, so
// only the target field needs to move (scheduling a second event would
// fork a duplicate chain and diverge later snapshots).
func (w *W) armStep(target float64) {
	if w.eng.HasPendingKind(stepKind) {
		w.st.StepTarget = target
		return
	}
	w.scheduleStep(target)
}

// scheduleStep queues the next step boundary toward target, and
// re-schedules itself from inside the handler until the target is reached
// or the context is canceled.
func (w *W) scheduleStep(target float64) {
	if w.st.Now >= target || w.Canceled() {
		return
	}
	next := w.boundary(target)
	// AdvanceTo cannot be called from inside a handler, so at most one
	// step chain is in flight and a single target field suffices.
	w.st.StepTarget = target
	if err := w.eng.AtKeyed(next, stepKind, 0, stepKind); err != nil {
		// The engine clock can sit past w.st.Now only after a canceled run's
		// drained RunUntil; stepping is over either way.
		return
	}
}

// CatchUp advances the world clock to t synchronously, without scheduling
// engine events. It is the form safe to call from inside engine handlers,
// where the engine is already mid-pump (the fleet's dispatch/arrival
// handlers sync the world this way).
func (w *W) CatchUp(t float64) {
	for w.st.Now < t && !w.Canceled() {
		w.step(t)
	}
}

// RecordDeath logs a node death into the audit trail: its reachability as
// it died, the first-death statistic, and the cancellation of any pending
// request it had.
func (w *W) RecordDeath(id wrsn.NodeID) {
	reachable := w.nw.Connected(id)
	w.led.Audit.Deaths = append(w.led.Audit.Deaths, detect.DeathObs{
		Node: id, Time: w.st.Now,
		// Routing still reflects the pre-death topology here (Recompute
		// runs after the batch), so this is the node's state as it died.
		Reachable: reachable,
	})
	if w.probe.Enabled() {
		detail := "partitioned"
		if reachable {
			detail = "reachable"
		}
		w.probe.Add("campaign.deaths", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "node.death", Node: int(id), Detail: detail})
	}
	w.led.NoteDeath(w.st.Now)
	if req, ok := w.qu.Get(id); ok {
		w.led.Audit.Unserved = append(w.led.Audit.Unserved, requestObs(req))
		w.qu.Remove(id)
	}
}

// requestObs is the audit trail's record of a request that was never
// served.
func requestObs(req charging.Request) detect.RequestObs {
	return detect.RequestObs{Node: req.Node, IssuedAt: req.IssuedAt, NeedJ: req.NeedJ}
}

// DrainNode takes j joules from an alive node outside the step pass — the
// energy cost of a countermeasure action — and records the death it can
// cause, which the step pass would otherwise be the one to notice. It is
// a no-op on a node out of service.
func (w *W) DrainNode(id wrsn.NodeID, j float64) {
	if !w.nw.Alive(id) {
		return
	}
	w.nw.Drain(id, j)
	if w.nw.Depleted(id) {
		w.RecordDeath(id)
		w.nw.Recompute()
	}
}

// Start takes the run's opening observations at the current clock,
// before the first step: the request scan, then a lifetime sample.
func (w *W) Start() {
	w.scanRequests()
	w.Sample()
}

// scanRequests issues charging requests for the eligible nodes:
// connected, at or below the request threshold, outside their cooldown,
// with nothing pending. The network lists the alive nodes that are both
// low and connected, ascending, which is every node that can pass the
// first two tests, so the loss draws consume the stream exactly as a
// scan over every node would. Under a fault plan, a sink outage defers
// issuance entirely (requests cannot reach the sink), each transmission
// may be lost, and a node whose request was lost retries with capped
// exponential backoff.
func (w *W) scanRequests() {
	if w.st.SinkDown {
		return
	}
	w.low = w.nw.AppendLowConnected(w.low[:0])
	for _, id := range w.low {
		if w.wantsCharge(id) {
			w.issueRequest(id)
		}
	}
}

// wantsCharge is the request-eligibility predicate for a node the
// network lists as alive, low and connected (AppendLowConnected, whose
// threshold New sets to p.RequestFrac): nothing pending, outside
// cooldown and retransmission backoff.
func (w *W) wantsCharge(id wrsn.NodeID) bool {
	if w.qu.Has(id) || w.st.Now < w.st.Cool[id] {
		return false
	}
	return w.st.RetxNext == nil || w.st.Now >= w.st.RetxNext[id]
}

// issueRequest runs the mutating tail of the scan for one eligible node:
// the fault plan's loss draw, then the queue insert and ledger write.
// Callers must invoke it in ascending node-ID order, so that the full
// scan and the step's candidate scan consume the loss stream alike.
func (w *W) issueRequest(id wrsn.NodeID) {
	if w.plan.LoseRequest() {
		w.noteRequestLost(id)
		return
	}
	level := w.nw.Level(id)
	drain := w.nw.DrainWatts(id)
	deadline := math.Inf(1)
	if drain > 0 {
		deadline = w.st.Now + level/drain
	}
	need := w.nw.Capacity(id) - level
	err := w.qu.Add(charging.Request{
		Node:     id,
		Pos:      w.nw.Pos(id),
		IssuedAt: w.st.Now,
		Deadline: deadline,
		NeedJ:    need,
	})
	if err == nil {
		w.led.Issued++
		if w.st.RetxAttempt != nil && w.st.RetxAttempt[id] > 0 {
			// The request finally got through after one or more losses.
			w.led.Faults.RequestsRecovered++
			w.st.RetxAttempt[id] = 0
			w.st.RetxNext[id] = 0
		}
		if w.probe.Enabled() {
			w.probe.Add("campaign.requests.issued", 1)
			w.probe.Event(obs.Event{T: w.st.Now, Kind: "request", Node: int(id), Value: need})
		}
	}
}

// noteRequestLost records one lost request transmission and arms the
// node's retransmission backoff: retxBaseSec doubled per consecutive
// loss, capped at retxCapSec. The retry happens at the first step
// boundary past the backoff — request timing stays on the world's
// deterministic step grid.
func (w *W) noteRequestLost(id wrsn.NodeID) {
	attempt := w.st.RetxAttempt[id]
	backoff := retxBaseSec * math.Pow(2, float64(attempt))
	if backoff > retxCapSec {
		backoff = retxCapSec
	}
	w.st.RetxAttempt[id] = attempt + 1
	w.st.RetxNext[id] = w.st.Now + backoff
	w.led.Faults.RequestsLost++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.requests_lost", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.request.lost", Node: int(id), Value: backoff})
	}
}

// Sample records lifetime samples at the configured cadence.
func (w *W) Sample() {
	if w.p.SampleEverySec <= 0 {
		return
	}
	for w.st.NextSample <= w.st.Now {
		s := ledger.Sample{T: w.st.NextSample}
		for i := range w.nw.Len() {
			id := wrsn.NodeID(i)
			if !w.nw.Alive(id) {
				continue
			}
			s.Alive++
			if w.nw.Connected(id) {
				s.Connected++
			}
			if w.keySet[id] {
				s.KeyAlive++
			}
		}
		w.led.Samples = append(w.led.Samples, s)
		w.st.NextSample += w.p.SampleEverySec
	}
}

// AuditView returns the evidence a live audit sees: everything recorded
// so far, plus pending requests old enough (past the grace age) to count
// as ignored — the sink knows what it dispatched and what has been
// waiting suspiciously long.
func (w *W) AuditView() detect.Audit {
	view := w.led.Audit
	stale := make([]detect.RequestObs, 0, 4)
	for _, req := range w.qu.Pending() {
		if w.st.Now-req.IssuedAt >= w.p.PendingGraceSec {
			stale = append(stale, requestObs(req))
		}
	}
	if len(stale) > 0 {
		view.Unserved = append(append([]detect.RequestObs(nil), w.led.Audit.Unserved...), stale...)
	}
	return view
}

// audit runs the sink's cumulative detector audit at its cadence. Once
// any detector fires, the ledger records the catch — the policy layer
// observes it and hands the network back to honest service.
func (w *W) audit() {
	if !w.st.Auditing || w.led.Caught || w.p.AuditEverySec < 0 {
		return
	}
	for w.st.NextAudit <= w.st.Now {
		w.st.NextAudit += w.p.AuditEverySec
		if w.st.SinkDown {
			// The sink is out: it cannot judge, but its audit clock keeps
			// ticking so the cadence realigns on restore.
			continue
		}
		view := w.AuditView()
		if len(view.Sessions)+len(view.Unserved) < w.p.MinAuditSessions {
			continue
		}
		w.probe.Add("campaign.audits", 1)
		for _, v := range detect.JudgeProbed(view, w.p.Detectors, w.probe, w.st.Now) {
			if v.Flagged {
				w.led.Catch(w.st.Now, v.Detector)
				w.probe.Event(obs.Event{T: w.st.Now, Kind: "charger.impounded", Node: -1, Value: v.Score, Detail: v.Detector})
				return
			}
		}
	}
}

// ---- fault handlers (invoked by compiled plan events) ----

// failNode applies a node hardware fault: the node powers off — out of
// routing, not draining, its pending request withdrawn (the sink treats
// the dropout as maintenance, not an ignored request). A draw landing on
// an already-dead or already-failed node, or naming no node of the
// network, is a no-op.
func (w *W) failNode(id int) {
	n := wrsn.NodeID(id)
	if !w.nw.Has(n) || !w.nw.Alive(n) {
		return
	}
	w.nw.Fail(n)
	w.qu.Remove(n)
	if w.st.RetxAttempt != nil {
		w.st.RetxAttempt[n] = 0
		w.st.RetxNext[n] = 0
	}
	w.nw.Recompute()
	w.led.Faults.NodeFailures++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.node_failures", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.node.down", Node: id})
	}
}

// repairNode returns a hardware-failed node to service with whatever
// charge its battery kept. A node that is not failed, or not a node of
// the network, is left alone.
func (w *W) repairNode(id int) {
	n := wrsn.NodeID(id)
	if !w.nw.Has(n) || !w.nw.Failed(n) {
		return
	}
	w.nw.Repair(n)
	w.nw.Recompute()
	w.led.Faults.NodeRecoveries++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.node_recoveries", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.node.up", Node: id})
	}
}

// chargerDown opens a charger breakdown window until the given time.
func (w *W) chargerDown(until float64) {
	if w.st.ChDown {
		return
	}
	w.st.ChDown = true
	w.st.ChDownSince = w.st.Now
	w.st.ChDownUntil = until
	w.led.Faults.ChargerBreakdowns++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.charger_breakdowns", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.charger.down", Node: -1, Value: until - w.st.Now})
	}
}

// chargerUp closes the breakdown window and accounts its downtime.
func (w *W) chargerUp() {
	if !w.st.ChDown {
		return
	}
	w.st.ChDown = false
	w.st.ChDownTotal += w.st.Now - w.st.ChDownSince
	w.st.ChDownUntil = 0
	w.led.Faults.ChargerRepairs++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.charger_repairs", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.charger.up", Node: -1})
	}
}

// sinkOutage opens a sink outage window: no requests reach the sink and
// audits pass judgment-free until restore.
func (w *W) sinkOutage(until float64) {
	if w.st.SinkDown {
		return
	}
	w.st.SinkDown = true
	w.st.SinkSince = w.st.Now
	w.led.Faults.SinkOutages++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.sink_outages", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.sink.down", Node: -1, Value: until - w.st.Now})
	}
}

// sinkRestore closes the outage window, recording the interval.
func (w *W) sinkRestore() {
	if !w.st.SinkDown {
		return
	}
	w.st.SinkDown = false
	w.led.Faults.SinkDownSec += w.st.Now - w.st.SinkSince
	w.led.Faults.SinkWindows = append(w.led.Faults.SinkWindows, faults.Window{From: w.st.SinkSince, To: w.st.Now})
	w.led.Faults.SinkRestores++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.sink_restores", 1)
		w.probe.Event(obs.Event{T: w.st.Now, Kind: "fault.sink.up", Node: -1})
	}
}

// ---- fault queries (read by the session and policy layers) ----

// ChargerDownUntil returns the scheduled repair time of an open charger
// breakdown window, or 0 when the charger is operational. Sessions
// suspend and policies park until then.
func (w *W) ChargerDownUntil() float64 {
	if !w.st.ChDown {
		return 0
	}
	return w.st.ChDownUntil
}

// ChargerDownSecTotal returns cumulative charger downtime including any
// window still open at the current clock; sessions difference it across
// an advance to measure suspended time.
func (w *W) ChargerDownSecTotal() float64 {
	if w.st.ChDown {
		return w.st.ChDownTotal + (w.st.Now - w.st.ChDownSince)
	}
	return w.st.ChDownTotal
}

// Close ends the run's world at its final clock; call it once, when the
// run finishes. Under a fault plan it first accounts the fault windows
// still open: their downtime is added to the ledger (a sink window is
// recorded) but no repair or restore is counted — an unrepaired fault
// stays fatal in the report. Then every request still pending joins the
// audit's unserved list. It returns a copy of the run's fault report,
// nil on a fault-free run.
func (w *W) Close() *faults.Report {
	var rep *faults.Report
	if w.plan != nil {
		if w.st.ChDown {
			w.st.ChDown = false
			w.st.ChDownTotal += w.st.Now - w.st.ChDownSince
			w.st.ChDownUntil = 0
		}
		w.led.Faults.ChargerDownSec = w.st.ChDownTotal
		if w.st.SinkDown {
			w.st.SinkDown = false
			w.led.Faults.SinkDownSec += w.st.Now - w.st.SinkSince
			w.led.Faults.SinkWindows = append(w.led.Faults.SinkWindows, faults.Window{From: w.st.SinkSince, To: w.st.Now})
		}
		f := w.led.Faults
		rep = &f
	}
	for _, req := range w.qu.Pending() {
		w.led.Audit.Unserved = append(w.led.Audit.Unserved, requestObs(req))
	}
	return rep
}
