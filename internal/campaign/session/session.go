// Package session is the charging-session layer of a campaign: an Actor
// wraps one mobile charger and performs genuine (focus) and
// destructive-interference (spoof) sessions against nodes of the shared
// world, including travel, the rectifier's harvest, benign failure noise,
// cooldown bookkeeping, and the countermeasure checks (harvest
// verification, neighbor witnessing) that run against every completed
// session. The Actor advances the world clock through the world layer
// while it acts and writes results into the shared ledger; it makes no
// scheduling decisions — policies do.
package session

import (
	"math"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/defense"
	"github.com/reprolab/wrsn-csa/internal/detect"
	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wpt"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Actor performs charging sessions with one charger against the shared
// world, drawing session randomness (benign failures, phase jitter,
// countermeasure duty cycles) from the campaign's stream in a fixed order.
type Actor struct {
	W     *world.W
	Ch    *mc.Charger
	L     *ledger.L
	R     *rng.Stream
	rect  wpt.Rectifier
	probe obs.Probe

	// Witness-scan scratch, reused across sessions.
	witnessBuf []wrsn.NodeID
	witnessPts []geom.Point
	witnessRF  []float64
}

// NewActor wires an actor over the world, ledger, and charger. The
// session knobs are the world's (see world.Params).
func NewActor(w *world.W, ch *mc.Charger, led *ledger.L, r *rng.Stream, probe obs.Probe) *Actor {
	return &Actor{W: w, Ch: ch, L: led, R: r, rect: ch.Rectifier(), probe: obs.Or(probe)}
}

// Focus performs a genuine charge of the node for up to dur seconds
// (clamped so the victim cannot die mid-session), returning the session.
// The caller must already have positioned the charger at the node's dock.
func (a *Actor) Focus(id wrsn.NodeID, dur float64) (charging.Session, error) {
	nw := a.W.Network()
	pos := nw.Pos(id)
	rate, err := a.Ch.DeliveredPower(pos)
	if err != nil {
		return charging.Session{}, err
	}
	drain := nw.DrainWatts(id)
	if net := rate - drain; net > 0 {
		// Clamp to topping the battery off at the *net* fill rate.
		if fill := (nw.Capacity(id) - nw.Level(id)) / net; fill < dur {
			dur = fill
		}
	}
	if drain > 0 {
		if life := nw.Level(id) / drain; dur > 0.95*life && rate <= drain {
			dur = 0.95 * life
		}
	}
	if err := a.Ch.SpendRadiation(dur); err != nil {
		return charging.Session{}, err
	}
	solicited := a.W.Queue().Has(id)
	requested, meterBefore := a.PendingNeed(id), nw.MeterRead(id)
	start := a.W.Now()
	// Benign session failure: the charger misdocks or is obstructed and
	// the session delivers nothing — the background noise real detectors
	// must tolerate (which is why the gain detector needs consecutive
	// zeros to fire).
	nominalRate := rate
	if a.R.Bool(a.W.Params().BenignFailRate) {
		rate = 0
	}
	// The victim drains with everyone else during the session; the charge
	// lands continuously but is applied at session end (the clamp above
	// guarantees survival). Charger breakdowns suspend delivery: only the
	// actively-radiating seconds charge the battery.
	active := a.advance(dur)
	delivered := nw.Charge(id, rate*active)
	s := charging.Session{
		Node:       id,
		Kind:       charging.SessionFocus,
		Start:      start,
		End:        a.W.Now(),
		RequestedJ: requested,
		DeliveredJ: delivered,
		MeterGainJ: nw.MeterRead(id) - meterBefore,
		RFAtNodeW:  4 * a.Ch.Array().Model.Power(a.Ch.Params().ServiceDist),
	}
	a.Complete(id, s, true, solicited)
	a.applyDefenses(id, s, nominalRate, rate, false, func(dst []float64, pts []geom.Point) []float64 {
		out, err := a.Ch.RadiatedPowerAtAll(pos, dst, pts)
		if err != nil {
			// An unsteerable session measures zero everywhere, matching
			// the scalar query's per-point error fallback.
			if cap(dst) < len(pts) {
				dst = make([]float64, len(pts))
			}
			dst = dst[:len(pts)]
			for i := range dst {
				dst[i] = 0
			}
			return dst
		}
		return out
	})
	return s, nil
}

// Spoof performs a destructive-interference visit: the charger steers a
// null at the victim and radiates — at full drive, so external observers
// see a normal charging session — while the victim harvests (almost)
// nothing. With the SingleEmitter ablation the null is physically
// impossible and the "spoof" degenerates into a genuine charge.
func (a *Actor) Spoof(id wrsn.NodeID, dur float64) (charging.Session, error) {
	if a.W.Params().SingleEmitter {
		// One coherent element cannot cancel itself; to keep up
		// appearances it must radiate, and radiating charges the victim.
		return a.Focus(id, dur)
	}
	nw := a.W.Network()
	pos := nw.Pos(id)
	arr := a.Ch.Array()
	scale, err := wpt.SteerSpoof(arr, pos, a.W.Params().Band)
	if err != nil {
		return charging.Session{}, err
	}
	errs := []float64{
		a.R.NormMeanStd(0, arr.PhaseJitterRad),
		a.R.NormMeanStd(0, arr.PhaseJitterRad),
	}
	rf, err := arr.RFPowerAtWithJitter(pos, errs)
	if err != nil {
		return charging.Session{}, err
	}
	spoofPower := a.Ch.Params().RadiateW * scale * scale
	if err := a.Ch.SpendEnergy(spoofPower * dur); err != nil {
		return charging.Session{}, err
	}
	solicited := a.W.Queue().Has(id)
	requested, meterBefore := a.PendingNeed(id), nw.MeterRead(id)
	start := a.W.Now()
	active := a.advance(dur)
	delivered := nw.Charge(id, a.rect.DCOutput(rf)*active)
	s := charging.Session{
		Node:       id,
		Kind:       charging.SessionSpoof,
		Start:      start,
		End:        a.W.Now(),
		RequestedJ: requested,
		DeliveredJ: delivered,
		MeterGainJ: nw.MeterRead(id) - meterBefore,
		RFAtNodeW:  rf,
	}
	// Cooldown applies only when the victim's carrier detector saw an
	// active charger; a failed spoof (null too deep) leaves the node free
	// to re-request immediately.
	a.Complete(id, s, rf >= a.W.Params().Band.CarrierDetectW, solicited)
	claimed, err := a.Ch.DeliveredPower(pos)
	if err != nil {
		claimed = 0
	}
	a.applyDefenses(id, s, claimed, a.rect.DCOutput(rf), true, arr.RFPowerAtAll)
	return s, nil
}

// advance moves the world clock until the session has accumulated dur
// seconds of *active* (charger-operational) time, suspending across any
// charger breakdown windows that open mid-session and resuming after
// repair. It returns the active seconds achieved — exactly dur on the
// normal path (so fault-free delivered energy is bit-identical to the
// pre-fault code), less when the run is canceled or the breakdown never
// repairs within the bounded retries.
func (a *Actor) advance(dur float64) float64 {
	start := a.W.Now()
	base := a.W.ChargerDownSecTotal()
	target := start + dur
	active := 0.0
	// Bounded resume attempts: each iteration either completes the
	// session or extends past one breakdown window; plans with more
	// than 8 windows inside one session are beyond the model.
	for i := 0; i < 8; i++ {
		a.W.AdvanceTo(target, nil)
		down := a.W.ChargerDownSecTotal() - base
		active = a.W.Now() - start - down
		if short := dur - active; short <= 1e-6 {
			return dur
		} else if a.W.Canceled() {
			break
		} else {
			target = a.W.Now() + short
			if until := a.W.ChargerDownUntil(); until > a.W.Now() {
				target = until + short
			}
		}
	}
	return math.Max(0, math.Min(active, dur))
}

// PendingNeed returns the node's pending requested energy, or its current
// shortfall when no request is pending (an unsolicited session still
// claims a requested amount in telemetry).
func (a *Actor) PendingNeed(id wrsn.NodeID) float64 {
	if req, ok := a.W.Queue().Get(id); ok {
		return req.NeedJ
	}
	return a.W.Network().Capacity(id) - a.W.Network().Level(id)
}

// Complete records a finished session: ground truth, the sink's
// observation, wait statistics, request clearing, and the cooldown (only
// when the victim's carrier detector saw an active charger). The fleet's
// engine-scheduled sessions use it directly.
func (a *Actor) Complete(id wrsn.NodeID, s charging.Session, carrierSeen, solicited bool) {
	a.L.Sessions = append(a.L.Sessions, s)
	a.L.Audit.Sessions = append(a.L.Audit.Sessions, detect.SessionObs{
		Node: id, Start: s.Start, End: s.End,
		RequestedJ: s.RequestedJ, MeterGainJ: s.MeterGainJ,
		Solicited: solicited,
	})
	if req, ok := a.W.Queue().Get(id); ok {
		a.L.NoteWait(s.Start - req.IssuedAt)
		a.probe.Observe("campaign.wait_sec", s.Start-req.IssuedAt)
	}
	if a.W.Queue().Remove(id) {
		a.L.Served++
		a.probe.Add("campaign.requests.served", 1)
	}
	if carrierSeen {
		a.W.SetCooldown(id, s.End+a.W.Params().CooldownSec)
	}
	if a.probe.Enabled() {
		kind := "session.focus"
		if s.Kind == charging.SessionSpoof {
			kind = "session.spoof"
		}
		a.probe.Add("campaign."+kind, 1)
		a.probe.Observe("campaign.session_sec", s.End-s.Start)
		a.probe.Event(obs.Event{T: s.Start, Kind: kind, Node: int(id), Value: s.MeterGainJ})
	}
}

// TravelTo moves the charger to the node's dock, advancing the world by
// the travel time.
func (a *Actor) TravelTo(id wrsn.NodeID) error {
	dock := a.Ch.ServicePoint(a.W.Network().Pos(id))
	dt := a.Ch.TravelTime(dock)
	if a.probe.Enabled() {
		a.probe.Event(obs.Event{T: a.W.Now(), Kind: "charger.travel", Node: int(id), Value: a.Ch.Pos().Dist(dock)})
	}
	if err := a.Ch.Travel(dock); err != nil {
		return err
	}
	a.W.AdvanceTo(a.W.Now()+dt, nil)
	return nil
}

// applyDefenses runs the enabled countermeasures against a just-completed
// session. claimedRateW is the DC rate the session purported to deliver;
// actualDCW what the victim's rectifier truly produced; fieldAt evaluates
// the charger's RF field at a batch of points for witnesses (RFPowerAtAll
// shaped); spoofed is simulation ground truth deciding exposure vs false
// alarm.
func (a *Actor) applyDefenses(id wrsn.NodeID, s charging.Session, claimedRateW, actualDCW float64, spoofed bool, fieldAt func([]float64, []geom.Point) []float64) {
	def := a.W.Params().Defense
	if !def.Enabled() {
		return
	}
	expose := func(by string, dc, rf float64) {
		e := defense.Exposure{
			By: by, At: a.W.Now(), Victim: int(id),
			MeasuredDCW: dc, WitnessRFW: rf,
		}
		if spoofed {
			a.L.Exposures = append(a.L.Exposures, e)
			a.probe.Add("campaign.defense.exposures", 1)
			a.probe.Event(obs.Event{T: a.W.Now(), Kind: "defense.exposure", Node: int(id), Value: dc, Detail: by})
			if a.W.Auditing() {
				a.L.Catch(a.W.Now(), by)
			}
		} else {
			// A benign dead session looks exactly like a spoof to the
			// measurement; the operator investigates and finds a misdock.
			a.L.FalseAlarms++
			a.probe.Add("campaign.defense.false_alarms", 1)
			a.probe.Event(obs.Event{T: a.W.Now(), Kind: "defense.false_alarm", Node: int(id), Value: dc, Detail: by})
		}
	}

	// Harvest verification: the victim samples its own DC mid-session.
	if def.VerifyProb > 0 && a.W.Network().Alive(id) && a.R.Bool(def.VerifyProb) {
		cost := def.VerifyCostJ
		if cost <= 0 {
			cost = defense.DefaultVerifyCostJ
		}
		a.W.DrainNode(id, cost)
		if def.Judge(claimedRateW, actualDCW) == defense.VerifyFail {
			expose("harvest-verification", actualDCW, 0)
		}
	}

	// Neighbor witnessing: nodes inside the charger's RF range sample the
	// field. A strong attested field plus a zero-gain session is the
	// spoof's remote signature — the null is local to the victim.
	if def.WitnessDutyCycle > 0 {
		gainLow := s.MeterGainJ <= 1
		rangeM := a.Ch.Array().Model.Range
		pos := a.Ch.Pos()
		// The spatial index yields exactly the alive in-range nodes the
		// full scan filtered to, in the same ascending ID order, so the
		// per-witness duty-cycle draws consume the stream identically.
		wit := a.W.Network().NodesNear(a.witnessBuf[:0], pos, rangeM)
		a.witnessBuf = wit
		if len(wit) > 0 {
			// Prefetch the field at every candidate in one batch: the
			// evaluation is deterministic (no stream draws), so computing
			// it up front — including for witnesses the duty cycle then
			// skips — changes nothing observable.
			pts := a.witnessPts[:0]
			for _, w := range wit {
				pts = append(pts, a.W.Network().Pos(w))
			}
			a.witnessPts = pts
			a.witnessRF = fieldAt(a.witnessRF[:0], pts)
		}
		for i, w := range wit {
			if w == id {
				continue
			}
			if !a.R.Bool(def.WitnessDutyCycle) {
				continue
			}
			a.L.WitnessSamples++
			a.probe.Add("campaign.defense.witness_samples", 1)
			cost := def.WitnessCostJ
			if cost <= 0 {
				cost = defense.DefaultWitnessCostJ
			}
			a.W.DrainNode(w, cost)
			rf := a.witnessRF[i]
			if rf >= def.WitnessThreshold() && gainLow {
				expose("neighbor-witness", actualDCW, rf)
				break
			}
		}
	}
}
