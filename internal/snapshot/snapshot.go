// Package snapshot captures the deterministic warm-up prefix of a
// Monte-Carlo run — scenario placement, connectivity repair, and routing
// convergence — as a versioned, serializable world state that can be
// forked once per seed instead of rebuilt once per seed.
//
// A barrier Snapshot is taken after the build: the network exists and
// routing has converged, but no campaign has started, so the simulation
// clock is zero, no events are queued and there is no campaign state. A
// live Snapshot (CaptureLive) is the same layout taken mid-run, with the
// clock, the keyed event queue and the campaign state filled in. Both
// encode through internal/digest: the wire form is the canonical digest
// JSON of the snapshot, and Decode is its strict inverse.
//
// Forking is copy-on-write: each fork deep-copies the mutable world
// (nodes, batteries, routing arrays, charger) and shares the immutable
// parts (the position grid). Fork is safe to call from many goroutines.
// Campaign randomness derives from the campaign seed, not from snapshot
// state, so N forks of one snapshot reproduce N fresh builds exactly —
// the golden-digest harness pins this byte-for-byte.
package snapshot

import (
	"fmt"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/campaign/ledger"
	"github.com/reprolab/wrsn-csa/internal/campaign/policy"
	"github.com/reprolab/wrsn-csa/internal/campaign/world"
	"github.com/reprolab/wrsn-csa/internal/charging"
	"github.com/reprolab/wrsn-csa/internal/digest"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/sim"
	"github.com/reprolab/wrsn-csa/internal/trace"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// Version is the wire version, shared by barrier and live snapshots.
// Decode reads this version only.
const Version = 4

// wire is the serialized form. Its canonical digest encoding keys each
// field by its Go name, so renaming a field changes the layout.
type wire struct {
	Version  int
	Scenario trace.Scenario
	ClockSec float64
	Pending  []sim.PendingEvent
	Network  wrsn.State
	Charger  *mc.State
	RNG      *[4]uint64
	Campaign *CampaignState
}

// CampaignState is the live-campaign payload of a live snapshot:
// everything above the network/charger substrate that a mid-run capture
// must carry to resume byte-identically.
type CampaignState struct {
	// World is the environment layer: clock, request queue, cadence
	// cursors, fault-window state, loss-stream position.
	World world.State
	// Ledger is the accumulated run record, captured as itself
	// (ledger.L.Clone).
	Ledger ledger.L
	// Rand is the single campaign stream's generator position (the
	// session actor and policy Env share one stream).
	Rand [4]uint64
	// Keys lists the plan-time key nodes the campaign marked for
	// lifetime sampling.
	Keys []wrsn.KeyNode
	// Policy is the single-charger drive state; nil on fleet runs.
	Policy *policy.State
	// Fleet is the multi-charger state; nil on single-charger runs.
	Fleet *FleetState
	// Tour is the unserved tour of a single-charger run's PeriodicTSP
	// scheduler, the one scheduler that keeps state between picks; nil
	// for the others. A fleet charger carries its own (FleetCharger.Tour).
	Tour []wrsn.NodeID
}

// FleetState is the fleet service's mid-run state: each charger's
// position in its dispatch/arrive/session-end machine plus the shared
// reservation set and busy-time accumulator.
type FleetState struct {
	Chargers []FleetCharger
	Reserved []wrsn.NodeID
	Busy     float64
}

// Fleet-charger phases (the position within dispatch→arrive→end that the
// charger's next pending keyed event will execute).
const (
	// FleetIdle: no assignment in flight; the charger's next event is a
	// dispatch (or it parked forever and has none).
	FleetIdle = 0
	// FleetEnRoute: traveling; the next event is the arrival.
	FleetEnRoute = 1
	// FleetServing: radiating; the next event is the session end.
	FleetServing = 2
)

// FleetCharger is one fleet member's state.
type FleetCharger struct {
	Charger mc.State
	Phase   int
	// Req is the reserved assignment (EnRoute/Serving phases).
	Req *charging.Request
	// Tour is the unserved tour of this charger's own PeriodicTSP
	// scheduler; nil for the stateless schedulers.
	Tour []wrsn.NodeID
	// Session parameters captured across the arrive→end window.
	Rate        float64
	Dur         float64
	Start       float64
	MeterBefore float64
	TravelT     float64
	Solicited   bool
}

// Snapshot is a captured world state: scenario provenance, the network
// and charger at the barrier, and the post-placement rng position. It is
// immutable after capture; Fork hands out independent copies.
type Snapshot struct {
	w wire

	// The fork template materializes lazily (decoded snapshots rebuild the
	// network once via FromState, Capture clones the caller's world and
	// Build keeps the one it built) and is only ever read afterwards; mu guards both the
	// lazy build and the concurrent pure-read forks.
	mu     sync.Mutex
	tmplNW *wrsn.Network
	tmplCH *mc.Charger
}

// Capture snapshots a built world at the barrier. The scenario records
// provenance (and nothing more — restore never re-runs placement); nw is
// required; ch and rest may be nil when the caller has no charger or
// discarded the post-placement stream. Capture changes nothing a user of
// its arguments can observe (reading the network brings its lazily
// drained levels up to date), and the snapshot does not alias them:
// mutating the world afterwards does not affect the snapshot or its
// forks.
func Capture(sc trace.Scenario, nw *wrsn.Network, ch *mc.Charger, rest *rng.Stream) (*Snapshot, error) {
	if nw == nil {
		return nil, fmt.Errorf("snapshot: nil network")
	}
	s := capture(sc, nw, ch, rest)
	// Seed the fork template from the live world now — cheaper than the
	// FromState+Recompute rebuild a decoded snapshot pays on first Fork.
	s.tmplNW = nw.Fork()
	if ch != nil {
		s.tmplCH = ch.Fork()
	}
	return s, nil
}

// capture records the barrier state of a world, the fields a barrier
// and a live snapshot share; the caller primes the fork template or adds
// the live fields.
func capture(sc trace.Scenario, nw *wrsn.Network, ch *mc.Charger, rest *rng.Stream) *Snapshot {
	s := &Snapshot{w: wire{
		Version:  Version,
		Scenario: sc,
		Network:  nw.State(),
	}}
	if ch != nil {
		st := ch.State()
		s.w.Charger = &st
	}
	if rest != nil {
		st := rest.State()
		s.w.RNG = &st
	}
	return s
}

// CaptureLive snapshots a mid-run campaign as a live snapshot. Every
// engine event is keyed, so the pending queue is captured as it stands;
// ch may be nil — fleet runs carry their chargers inside cs.Fleet.
// Capture is pure reads, so checkpointing never perturbs the run it
// observes. No fork template is primed: a live snapshot is typically
// forked once, by the resuming campaign.
func CaptureLive(sc trace.Scenario, nw *wrsn.Network, ch *mc.Charger, eng *sim.Engine, cs *CampaignState) (*Snapshot, error) {
	if nw == nil {
		return nil, fmt.Errorf("snapshot: nil network")
	}
	if eng == nil || cs == nil {
		return nil, fmt.Errorf("snapshot: live capture needs an engine and campaign state")
	}
	s := capture(sc, nw, ch, nil)
	s.w.ClockSec, s.w.Pending, s.w.Campaign = eng.Now(), eng.PendingEvents(), cs
	return s, nil
}

// Build runs the scenario's warm-up prefix once — placement, connectivity
// repair, routing convergence — parks a fresh charger at the sink (the
// standard evaluation position), and captures the barrier snapshot. It is
// the one-call form sweep drivers use before forking per seed. The world
// it builds has no other owner, so it becomes the fork template as it is
// rather than through a copy: a fork reads only what Fork copies, so a
// fork of it equals a fork of its copy, and a 10k-node build skips a
// world-sized allocation burst.
func Build(sc trace.Scenario, params mc.Params) (*Snapshot, error) {
	nw, rest, err := sc.Build()
	if err != nil {
		return nil, err
	}
	ch := mc.New(nw.Sink(), params)
	s := capture(sc, nw, ch, rest)
	s.tmplNW, s.tmplCH = nw, ch
	return s, nil
}

// Fork returns an independent world: a deep copy of the snapshot's
// network and charger (nil if none was captured) plus a post-placement
// rng stream resumed at the captured position (nil if none was captured).
// Forks share no mutable state with each other or with the snapshot, so
// each can be simulated on its own goroutine.
func (s *Snapshot) Fork() (*wrsn.Network, *mc.Charger, *rng.Stream, error) {
	s.mu.Lock()
	if s.tmplNW == nil {
		nw, err := wrsn.FromState(s.w.Network)
		if err != nil {
			s.mu.Unlock()
			return nil, nil, nil, fmt.Errorf("snapshot: restoring network: %w", err)
		}
		s.tmplNW = nw
		if s.w.Charger != nil {
			ch, err := mc.FromState(*s.w.Charger)
			if err != nil {
				s.mu.Unlock()
				return nil, nil, nil, fmt.Errorf("snapshot: restoring charger: %w", err)
			}
			s.tmplCH = ch
		}
	}
	nw := s.tmplNW.Fork()
	var ch *mc.Charger
	if s.tmplCH != nil {
		ch = s.tmplCH.Fork()
	}
	s.mu.Unlock()
	var rest *rng.Stream
	if s.w.RNG != nil {
		rest = rng.FromState(*s.w.RNG)
	}
	return nw, ch, rest, nil
}

// ForkWorld forks the world a campaign runs on: Fork's network and
// charger, with a default charger parked at the sink when none was
// captured. The post-placement stream is dropped; no campaign draws
// from it.
func (s *Snapshot) ForkWorld() (*wrsn.Network, *mc.Charger, error) {
	nw, ch, _, err := s.Fork()
	if err != nil {
		return nil, nil, err
	}
	if ch == nil {
		ch = mc.New(nw.Sink(), mc.DefaultParams())
	}
	return nw, ch, nil
}

// Scenario returns the captured scenario, the snapshot's provenance.
func (s *Snapshot) Scenario() trace.Scenario { return s.w.Scenario }

// NodeCount returns the number of nodes in the captured network.
func (s *Snapshot) NodeCount() int { return len(s.w.Network.Nodes) }

// HasCharger reports whether a charger was captured.
func (s *Snapshot) HasCharger() bool { return s.w.Charger != nil }

// Live reports whether this is a live checkpoint: whether it carries
// campaign state.
func (s *Snapshot) Live() bool { return s.w.Campaign != nil }

// ClockSec returns the captured simulation clock.
func (s *Snapshot) ClockSec() float64 { return s.w.ClockSec }

// PendingEvents returns a copy of the captured pending event queue in
// execution order. The copy keeps the snapshot immutable: callers (and
// Fork-derived resumes) can never mutate the captured queue.
func (s *Snapshot) PendingEvents() []sim.PendingEvent {
	return append([]sim.PendingEvent(nil), s.w.Pending...)
}

// Campaign returns the live-campaign payload (nil on barrier snapshots).
// The inner slices are shared — treat the result as read-only; resume
// paths copy what they mutate.
func (s *Snapshot) Campaign() *CampaignState { return s.w.Campaign }

// Encode returns the wire encoding: the snapshot's canonical digest
// JSON (see internal/digest). Encoding the same snapshot always yields
// identical bytes, and every float64, +Inf included, survives the
// round-trip exactly.
func (s *Snapshot) Encode() ([]byte, error) {
	return digest.Canonical(&s.w)
}

// Decode reconstructs a snapshot from Encode's output. The decode is
// strict: anything but the exact canonical layout of this version — an
// unknown, missing or reordered field, whitespace, trailing bytes — is an
// error, because resuming from a half-understood checkpoint would corrupt
// results silently. Decode also rejects an unknown version, a snapshot
// with no nodes, and mid-run state (a clock or queued events) without the
// campaign state to resume it. The fork template is rebuilt lazily on
// first Fork.
func Decode(data []byte) (*Snapshot, error) {
	var w wire
	if err := digest.Decode(data, &w); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	if w.Version != Version {
		return nil, fmt.Errorf("snapshot: unsupported wire version %d (this build reads version %d)", w.Version, Version)
	}
	if len(w.Network.Nodes) == 0 {
		return nil, fmt.Errorf("snapshot: decode: no nodes")
	}
	if w.Campaign == nil && (w.ClockSec != 0 || len(w.Pending) > 0) {
		return nil, fmt.Errorf("snapshot: decode: mid-run state without campaign state")
	}
	return &Snapshot{w: w}, nil
}

// Digest returns the hex SHA-256 of Encode's bytes. Two snapshots with
// the same digest fork into identical worlds.
func (s *Snapshot) Digest() (string, error) {
	return digest.Sum(&s.w)
}
