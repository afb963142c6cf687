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
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/faults"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/sim"
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

// Params fixes the world's cadences and audit rules for one run.
type Params struct {
	// PollSec bounds the step granularity of the clock.
	PollSec float64
	// RequestFrac is the battery fraction that triggers charging requests.
	RequestFrac float64
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
}

// W is the mutable world of one campaign run.
type W struct {
	ctx   context.Context
	eng   *sim.Engine
	nw    *wrsn.Network
	led   *ledger.L
	p     Params
	probe obs.Probe

	now float64
	qu  charging.Queue
	// low is the request scan's candidate list, reused every step and
	// sized for every node once.
	low []wrsn.NodeID
	// cool and keySet are dense per-node tables (node IDs are the
	// contiguous 0..n-1 range); zero values mean "no cooldown" / "not a
	// key node", exactly matching the missing-key semantics of the maps
	// they replaced.
	cool       []float64
	keySet     []bool
	nextSample float64
	nextAudit  float64
	auditing   bool

	// stepTarget is where the in-flight step chain is headed; the chain's
	// single keyed handler (bound under stepKind at construction) re-reads
	// it on every event, so re-targeting is a field write.
	stepTarget float64

	// Fault state. plan is nil on fault-free runs; every field below then
	// stays zero and costs nothing on the hot path.
	plan        *faults.Plan
	chDown      bool
	chDownSince float64
	chDownUntil float64
	chDownTotal float64
	sinkDown    bool
	sinkSince   float64
	// retxAttempt/retxNext are dense per-node tables, nil on fault-free
	// runs so the hot path stays a nil check.
	retxAttempt []int
	retxNext    []float64
}

// New builds a world over the network, writing into led. The world owns a
// fresh event engine; callers needing engine telemetry instrument it via
// Engine(). A non-empty fault plan in p compiles onto the engine here, so
// fault events carry lower sequence numbers than any world step scheduled
// later — at equal timestamps the fault applies first. The network's
// request fraction is set to p.RequestFrac, which its low set tracks.
func New(ctx context.Context, nw *wrsn.Network, led *ledger.L, p Params, probe obs.Probe) *W {
	n := len(nw.Nodes())
	nw.SetRequestFraction(p.RequestFrac)
	w := &W{
		ctx:    ctx,
		eng:    sim.New(),
		nw:     nw,
		led:    led,
		p:      p,
		probe:  obs.Or(probe),
		qu:     charging.NewQueue(n),
		cool:   make([]float64, n),
		keySet: make([]bool, n),
		low:    make([]wrsn.NodeID, 0, n),
	}
	w.bindStep()
	if !p.Faults.Empty() {
		w.plan = p.Faults
		w.retxAttempt = make([]int, n)
		w.retxNext = make([]float64, n)
		// ErrPast is impossible here: the engine clock is zero and plan
		// events are non-negative.
		_ = faults.Compile(w.plan, w.eng, faults.Hooks{
			Sync:        w.CatchUp,
			NodeDown:    w.failNode,
			NodeUp:      w.repairNode,
			ChargerDown: w.chargerDown,
			ChargerUp:   w.chargerUp,
			SinkDown:    w.sinkOutage,
			SinkUp:      w.sinkRestore,
		})
	}
	return w
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
// With no faults w.now is exactly one step behind e.Now() and CatchUp
// performs the identical single step.
func (w *W) bindStep() {
	w.eng.Bind(stepKind, func(e *sim.Engine, _ int) {
		w.CatchUp(e.Now())
		w.scheduleStep(w.stepTarget)
	})
}

// Now returns the world clock in seconds.
func (w *W) Now() float64 { return w.now }

// Engine exposes the event engine (the fleet schedules its charger
// handlers on it; tests and telemetry instrument it).
func (w *W) Engine() *sim.Engine { return w.eng }

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
func (w *W) SetCooldown(id wrsn.NodeID, until float64) { w.cool[id] = until }

// StartAuditing arms the sink's periodic live audit with its first
// boundary at firstAt.
func (w *W) StartAuditing(firstAt float64) {
	w.auditing = true
	w.nextAudit = firstAt
}

// StopAuditing disarms live audits (the impounded charger's honest
// replacement is beyond suspicion).
func (w *W) StopAuditing() { w.auditing = false }

// Auditing reports whether live audits are armed.
func (w *W) Auditing() bool { return w.auditing }

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
	step := min(target, w.now+w.p.PollSec)
	if dt, _ := w.nw.NextDepletion(w.now); dt > w.now && dt < step {
		step = dt
	}
	died := w.nw.AdvanceEnergy(step - w.now)
	w.now = step
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

// AdvanceTo moves the world clock to t through the event engine: each
// step boundary is an engine event, and the engine is pumped until t. A
// canceled context stops the advance at the current boundary. AdvanceTo
// must not be called from inside an engine handler — use CatchUp there.
func (w *W) AdvanceTo(t float64) {
	if t <= w.now {
		return
	}
	w.armStep(t)
	_ = w.eng.RunUntil(t, 0)
}

// AdvanceToHook is AdvanceTo with a checkpoint hook invoked after every
// executed world-step event — the points where no handler is mid-flight
// and the world clock equals the engine clock. A non-nil hook error
// aborts the advance and is returned; with a nil-returning hook the
// executed event sequence is identical to AdvanceTo.
func (w *W) AdvanceToHook(t float64, hook func() error) error {
	if t <= w.now {
		return nil
	}
	w.armStep(t)
	return w.eng.RunUntilHook(t, 0, func(kind, _ string) error {
		if kind != stepKind {
			return nil
		}
		return hook()
	})
}

// armStep points the step chain at target. On a fresh advance no chain
// event is pending and one is scheduled; on the first advance after a
// resume the restored queue already carries the chain's next event, so
// only the target field needs to move (scheduling a second event would
// fork a duplicate chain and diverge later snapshots).
func (w *W) armStep(target float64) {
	if w.eng.HasPendingKind(stepKind) {
		w.stepTarget = target
		return
	}
	w.scheduleStep(target)
}

// scheduleStep queues the next step boundary toward target, and
// re-schedules itself from inside the handler until the target is reached
// or the context is canceled.
func (w *W) scheduleStep(target float64) {
	if w.now >= target || w.Canceled() {
		return
	}
	next := min(target, w.now+w.p.PollSec)
	if dt, _ := w.nw.NextDepletion(w.now); dt > w.now && dt < next {
		next = dt
	}
	// AdvanceTo cannot be called from inside a handler, so at most one
	// step chain is in flight and a single target field suffices.
	w.stepTarget = target
	if err := w.eng.AtKeyed(next, stepKind, 0, stepKind); err != nil {
		// The engine clock can sit past w.now only after a canceled run's
		// drained RunUntil; stepping is over either way.
		return
	}
}

// CatchUp advances the world clock to t synchronously, without scheduling
// engine events. It is the form safe to call from inside engine handlers,
// where the engine is already mid-pump (the fleet's dispatch/arrival
// handlers sync the world this way).
func (w *W) CatchUp(t float64) {
	for w.now < t && !w.Canceled() {
		w.step(t)
	}
}

// RecordDeath logs a node death into the audit trail: its reachability as
// it died, the first-death statistic, and the cancellation of any pending
// request it had.
func (w *W) RecordDeath(id wrsn.NodeID) {
	reachable := w.nw.Connected(id)
	w.led.Audit.Deaths = append(w.led.Audit.Deaths, detect.DeathObs{
		Node: id, Time: w.now,
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
		w.probe.Event(obs.Event{T: w.now, Kind: "node.death", Node: int(id), Detail: detail})
	}
	w.led.NoteDeath(w.now)
	if req, ok := w.qu.Get(id); ok {
		w.led.Audit.Unserved = append(w.led.Audit.Unserved, detect.RequestObs{
			Node: id, IssuedAt: req.IssuedAt, NeedJ: req.NeedJ,
		})
		w.qu.Remove(id)
	}
}

// DrainNode takes j joules from an alive node outside the step pass — the
// energy cost of a countermeasure action — and records the death it can
// cause, which the step pass would otherwise be the one to notice. It is
// a no-op on a node out of service.
func (w *W) DrainNode(id wrsn.NodeID, j float64) {
	if !w.nw.Nodes()[id].Alive() {
		return
	}
	w.nw.Drain(id, j)
	if w.nw.Nodes()[id].Depleted() {
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
	if w.sinkDown {
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
	if w.qu.Has(id) || w.now < w.cool[id] {
		return false
	}
	return w.retxNext == nil || w.now >= w.retxNext[id]
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
	n := w.nw.Nodes()[id]
	cap := n.Capacity()
	drain := w.nw.DrainWatts(id)
	deadline := math.Inf(1)
	if drain > 0 {
		deadline = w.now + n.Level()/drain
	}
	need := cap - n.Level()
	err := w.qu.Add(charging.Request{
		Node:     id,
		Pos:      n.Pos,
		IssuedAt: w.now,
		Deadline: deadline,
		NeedJ:    need,
	})
	if err == nil {
		w.led.Issued++
		if w.retxAttempt != nil && w.retxAttempt[id] > 0 {
			// The request finally got through after one or more losses.
			w.led.Faults.RequestsRecovered++
			w.retxAttempt[id] = 0
			w.retxNext[id] = 0
		}
		if w.probe.Enabled() {
			w.probe.Add("campaign.requests.issued", 1)
			w.probe.Event(obs.Event{T: w.now, Kind: "request", Node: int(id), Value: need})
		}
	}
}

// noteRequestLost records one lost request transmission and arms the
// node's retransmission backoff: retxBaseSec doubled per consecutive
// loss, capped at retxCapSec. The retry happens at the first step
// boundary past the backoff — request timing stays on the world's
// deterministic step grid.
func (w *W) noteRequestLost(id wrsn.NodeID) {
	attempt := w.retxAttempt[id]
	backoff := retxBaseSec * math.Pow(2, float64(attempt))
	if backoff > retxCapSec {
		backoff = retxCapSec
	}
	w.retxAttempt[id] = attempt + 1
	w.retxNext[id] = w.now + backoff
	w.led.Faults.RequestsLost++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.requests_lost", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.request.lost", Node: int(id), Value: backoff})
	}
}

// Sample records lifetime samples at the configured cadence.
func (w *W) Sample() {
	if w.p.SampleEverySec <= 0 {
		return
	}
	for w.nextSample <= w.now {
		s := ledger.Sample{T: w.nextSample}
		for _, n := range w.nw.Nodes() {
			if !n.Alive() {
				continue
			}
			s.Alive++
			if w.nw.Connected(n.ID) {
				s.Connected++
			}
			if w.keySet[n.ID] {
				s.KeyAlive++
			}
		}
		w.led.Samples = append(w.led.Samples, s)
		w.nextSample += w.p.SampleEverySec
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
		if w.now-req.IssuedAt >= w.p.PendingGraceSec {
			stale = append(stale, detect.RequestObs{
				Node: req.Node, IssuedAt: req.IssuedAt, NeedJ: req.NeedJ,
			})
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
	if !w.auditing || w.led.Caught || w.p.AuditEverySec < 0 {
		return
	}
	for w.nextAudit <= w.now {
		w.nextAudit += w.p.AuditEverySec
		if w.sinkDown {
			// The sink is out: it cannot judge, but its audit clock keeps
			// ticking so the cadence realigns on restore.
			continue
		}
		view := w.AuditView()
		if len(view.Sessions)+len(view.Unserved) < w.p.MinAuditSessions {
			continue
		}
		w.probe.Add("campaign.audits", 1)
		for _, v := range detect.JudgeProbed(view, w.p.Detectors, w.probe, w.now) {
			if v.Flagged {
				w.led.Catch(w.now, v.Detector)
				w.probe.Event(obs.Event{T: w.now, Kind: "charger.impounded", Node: -1, Value: v.Score, Detail: v.Detector})
				return
			}
		}
	}
}

// ---- fault handlers (invoked by compiled plan events) ----

// failNode applies a node hardware fault: the node powers off — out of
// routing, not draining, its pending request withdrawn (the sink treats
// the dropout as maintenance, not an ignored request). A draw landing on
// an already-dead or already-failed node is a no-op.
func (w *W) failNode(id int) {
	n, err := w.nw.Node(wrsn.NodeID(id))
	if err != nil || !n.Alive() {
		return
	}
	n.Fail()
	w.qu.Remove(n.ID)
	if w.retxAttempt != nil {
		w.retxAttempt[n.ID] = 0
		w.retxNext[n.ID] = 0
	}
	w.nw.Recompute()
	w.led.Faults.NodeFailures++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.node_failures", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.node.down", Node: id})
	}
}

// repairNode returns a hardware-failed node to service with whatever
// charge its battery kept.
func (w *W) repairNode(id int) {
	n, err := w.nw.Node(wrsn.NodeID(id))
	if err != nil || !n.Failed() {
		return
	}
	n.Repair()
	w.nw.Recompute()
	w.led.Faults.NodeRecoveries++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.node_recoveries", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.node.up", Node: id})
	}
}

// chargerDown opens a charger breakdown window until the given time.
func (w *W) chargerDown(until float64) {
	if w.chDown {
		return
	}
	w.chDown = true
	w.chDownSince = w.now
	w.chDownUntil = until
	w.led.Faults.ChargerBreakdowns++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.charger_breakdowns", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.charger.down", Node: -1, Value: until - w.now})
	}
}

// chargerUp closes the breakdown window and accounts its downtime.
func (w *W) chargerUp() {
	if !w.chDown {
		return
	}
	w.chDown = false
	w.chDownTotal += w.now - w.chDownSince
	w.chDownUntil = 0
	w.led.Faults.ChargerRepairs++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.charger_repairs", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.charger.up", Node: -1})
	}
}

// sinkOutage opens a sink outage window: no requests reach the sink and
// audits pass judgment-free until restore.
func (w *W) sinkOutage(until float64) {
	if w.sinkDown {
		return
	}
	w.sinkDown = true
	w.sinkSince = w.now
	w.led.Faults.SinkOutages++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.sink_outages", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.sink.down", Node: -1, Value: until - w.now})
	}
}

// sinkRestore closes the outage window, recording the interval.
func (w *W) sinkRestore() {
	if !w.sinkDown {
		return
	}
	w.sinkDown = false
	w.led.Faults.SinkDownSec += w.now - w.sinkSince
	w.led.Faults.SinkWindows = append(w.led.Faults.SinkWindows, faults.Window{From: w.sinkSince, To: w.now})
	w.led.Faults.SinkRestores++
	if w.probe.Enabled() {
		w.probe.Add("campaign.faults.sink_restores", 1)
		w.probe.Event(obs.Event{T: w.now, Kind: "fault.sink.up", Node: -1})
	}
}

// ---- fault queries (read by the session and policy layers) ----

// ChargerDownUntil returns the scheduled repair time of an open charger
// breakdown window, or 0 when the charger is operational. Sessions
// suspend and policies park until then.
func (w *W) ChargerDownUntil() float64 {
	if !w.chDown {
		return 0
	}
	return w.chDownUntil
}

// ChargerDownSecTotal returns cumulative charger downtime including any
// window still open at the current clock; sessions difference it across
// an advance to measure suspended time.
func (w *W) ChargerDownSecTotal() float64 {
	if w.chDown {
		return w.chDownTotal + (w.now - w.chDownSince)
	}
	return w.chDownTotal
}

// SinkDown reports whether a sink outage window is open.
func (w *W) SinkDown() bool { return w.sinkDown }

// CloseFaultWindows accounts fault windows still open when the run ends:
// their downtime is added to the ledger (a sink window is recorded) but
// no repair or restore is counted — an unrepaired fault stays fatal in
// the report. Call once at campaign finish.
func (w *W) CloseFaultWindows() {
	if w.chDown {
		w.chDown = false
		w.chDownTotal += w.now - w.chDownSince
		w.chDownUntil = 0
	}
	w.led.Faults.ChargerDownSec = w.chDownTotal
	if w.sinkDown {
		w.sinkDown = false
		w.led.Faults.SinkDownSec += w.now - w.sinkSince
		w.led.Faults.SinkWindows = append(w.led.Faults.SinkWindows, faults.Window{From: w.sinkSince, To: w.now})
	}
}
