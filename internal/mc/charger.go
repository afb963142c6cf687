// Package mc models the mobile charger: a vehicle with its own energy
// budget that travels between nodes and radiates wireless power through a
// coherent emitter array. The same chassis serves both roles in the paper —
// legitimate on-demand charger and, when compromised, the spoofing
// attacker; only the array steering differs.
package mc

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

// Params configures a charger. Zero-valued fields get defaults from
// DefaultParams.
type Params struct {
	// SpeedMps is the travel speed in m/s.
	SpeedMps float64
	// MoveJPerM is the locomotion energy per meter.
	MoveJPerM float64
	// RadiateW is the electrical power drawn while the array transmits.
	RadiateW float64
	// BudgetJ is the onboard energy budget per tour.
	BudgetJ float64
	// ServiceDist is the charger-to-node distance during a charging
	// session, in meters; docking is never exact contact.
	ServiceDist float64
	// ElementSpacing is the separation of the two array elements on the
	// chassis, in meters.
	ElementSpacing float64
}

// DefaultParams returns the evaluation defaults: a 5 m/s charger spending
// 50 J/m to move, drawing 50 W electrical while radiating at full power,
// docking at 0.5 m, elements 0.6 m apart. The 50 MJ budget covers roughly
// two weeks of on-demand service for a few hundred nodes; experiments that
// stress the budget constraint override it per TIDE instance.
func DefaultParams() Params {
	return Params{
		SpeedMps:       5,
		MoveJPerM:      50,
		RadiateW:       50,
		BudgetJ:        5e7,
		ServiceDist:    0.5,
		ElementSpacing: 0.6,
	}
}

func (p *Params) applyDefaults() {
	def := DefaultParams()
	if p.SpeedMps <= 0 {
		p.SpeedMps = def.SpeedMps
	}
	if p.MoveJPerM <= 0 {
		p.MoveJPerM = def.MoveJPerM
	}
	if p.RadiateW <= 0 {
		p.RadiateW = def.RadiateW
	}
	if p.BudgetJ <= 0 {
		p.BudgetJ = def.BudgetJ
	}
	if p.ServiceDist <= 0 {
		p.ServiceDist = def.ServiceDist
	}
	if p.ElementSpacing <= 0 {
		p.ElementSpacing = def.ElementSpacing
	}
}

// Charger is a mobile charger instance. It tracks position and remaining
// budget; all mutation is explicit (Travel, SpendRadiation) so planners can
// also use the pure cost queries. Charger is not safe for concurrent use.
type Charger struct {
	// st is the charger's checkpointed state, held as itself: capture
	// copies it and FromState adopts it.
	st State
	// probe receives charger telemetry (travel distance/energy, radiated
	// energy); always non-nil (the no-op probe when uninstrumented).
	probe obs.Probe

	// steered memoizes the docked, focus-steered scratch array that
	// DeliveredPower and RadiatedPowerAtAll evaluate. SteerFocus fully
	// overwrites every emitter's gain and phase and the dock depends only
	// on (charger position, node position), so the steered state is a pure
	// function of those two points while the chassis is parked; the memo
	// is dropped whenever the charger moves (Travel, Reset). Witness scans
	// that probe the same session's field dozens of times re-steer once.
	steered    wpt.Array
	steeredEm  []wpt.Emitter
	steeredFor geom.Point
	steeredOK  bool
}

// New returns a charger parked at depot.
func New(depot geom.Point, params Params) *Charger {
	params.applyDefaults()
	half := params.ElementSpacing / 2
	arr := wpt.NewArray(
		geom.Pt(depot.X-half, depot.Y),
		geom.Pt(depot.X+half, depot.Y),
	)
	return assemble(State{Params: params, Pos: depot, Depot: depot, Array: *arr, Rectifier: wpt.DefaultRectifier()})
}

// assemble is the one charger constructor New, FromState and Fork share.
// The charger takes ownership of st's array and starts with the no-op
// telemetry probe and a cold steered-array memo.
func assemble(st State) *Charger {
	return &Charger{st: st, probe: obs.Nop()}
}

// Instrument attaches a telemetry probe: travel accumulates into the
// "charger.travel_m" and "charger.travel_j" counters, every energy spend
// (radiation, spoof transmission) into "charger.spend_j", and tour
// resets into "charger.resets". A nil probe disables instrumentation.
// Telemetry never alters charger behavior.
func (c *Charger) Instrument(p obs.Probe) { c.probe = obs.Or(p) }

// Params returns the charger's configuration.
func (c *Charger) Params() Params { return c.st.Params }

// Pos returns the charger's current position.
func (c *Charger) Pos() geom.Point { return c.st.Pos }

// Depot returns the charger's home position.
func (c *Charger) Depot() geom.Point { return c.st.Depot }

// Array exposes the emitter array for steering. The array tracks the
// charger chassis; do not reposition it directly — use Travel.
func (c *Charger) Array() *wpt.Array { return &c.st.Array }

// Rectifier returns the node-side rectifier model the charger assumes when
// predicting delivered power.
func (c *Charger) Rectifier() wpt.Rectifier { return c.st.Rectifier }

// Spent returns the energy consumed so far this tour.
func (c *Charger) Spent() float64 { return c.st.SpentJ }

// Remaining returns the unspent budget.
func (c *Charger) Remaining() float64 { return c.st.Params.BudgetJ - c.st.SpentJ }

// TravelTime returns the time to reach dst from the current position.
func (c *Charger) TravelTime(dst geom.Point) float64 {
	return c.st.Pos.Dist(dst) / c.st.Params.SpeedMps
}

// TravelEnergy returns the locomotion energy to reach dst.
func (c *Charger) TravelEnergy(dst geom.Point) float64 {
	return c.st.Pos.Dist(dst) * c.st.Params.MoveJPerM
}

// RadiationEnergy returns the electrical energy to radiate for dt seconds.
func (c *Charger) RadiationEnergy(dt float64) float64 {
	return c.st.Params.RadiateW * dt
}

// Travel moves the charger (and its array) to dst, deducting locomotion
// energy. It fails without moving when the budget cannot cover the trip.
func (c *Charger) Travel(dst geom.Point) error {
	cost := c.TravelEnergy(dst)
	if cost > c.Remaining() {
		return fmt.Errorf("mc: travel to %v needs %.0f J, only %.0f J remain", dst, cost, c.Remaining())
	}
	if c.probe.Enabled() {
		c.probe.Add("charger.travel_m", c.st.Pos.Dist(dst))
		c.probe.Add("charger.travel_j", cost)
	}
	c.st.SpentJ += cost
	c.st.Pos = dst
	c.st.Array.MoveTo(dst)
	c.dropSteered()
	return nil
}

// SpendRadiation deducts the electrical energy for dt seconds of
// transmission. It fails without deducting when the budget is short.
func (c *Charger) SpendRadiation(dt float64) error {
	return c.SpendEnergy(c.RadiationEnergy(dt))
}

// SpendEnergy deducts an explicit energy amount (e.g. reduced-gain spoof
// transmission). It fails without deducting when the budget is short.
func (c *Charger) SpendEnergy(j float64) error {
	if j < 0 {
		return fmt.Errorf("mc: negative energy spend %v", j)
	}
	if j > c.Remaining() {
		return fmt.Errorf("mc: spending %.0f J exceeds remaining %.0f J", j, c.Remaining())
	}
	c.probe.Add("charger.spend_j", j)
	c.st.SpentJ += j
	return nil
}

// ServicePoint returns the docking position for charging a node at
// nodePos: ServiceDist meters from the node, approached from the charger's
// current direction (or due west when already at the node).
func (c *Charger) ServicePoint(nodePos geom.Point) geom.Point {
	d := c.st.Pos.Dist(nodePos)
	if d <= c.st.Params.ServiceDist {
		return c.st.Pos
	}
	t := (d - c.st.Params.ServiceDist) / d
	return c.st.Pos.Lerp(nodePos, t)
}

// steeredArray returns the scratch array docked at nodePos's service point
// and focus-steered on the node, serving repeat queries for the same node
// from the memo. The scratch is rebuilt from the live array's geometry, so
// steering mutations on the live array (SteerSpoof) never leak in.
func (c *Charger) steeredArray(nodePos geom.Point) (*wpt.Array, error) {
	if c.steeredOK && nodePos == c.steeredFor {
		return &c.steered, nil
	}
	c.steeredOK = false
	dock := c.ServicePoint(nodePos)
	c.steeredEm = append(c.steeredEm[:0], c.st.Array.Emitters...)
	c.steered = c.st.Array
	c.steered.Emitters = c.steeredEm
	c.steered.MoveTo(dock)
	if err := wpt.SteerFocus(&c.steered, nodePos); err != nil {
		return nil, fmt.Errorf("mc: focus at %v: %w", nodePos, err)
	}
	c.steeredFor, c.steeredOK = nodePos, true
	return &c.steered, nil
}

// dropSteered discards the steered-array memo; called whenever the chassis
// (and with it the dock geometry) moves.
func (c *Charger) dropSteered() { c.steeredOK = false }

// DeliveredPower returns the DC power a node at nodePos harvests while the
// charger, docked at its service point, focuses its array on the node.
// This is the legitimate charging rate.
func (c *Charger) DeliveredPower(nodePos geom.Point) (float64, error) {
	arr, err := c.steeredArray(nodePos)
	if err != nil {
		return 0, err
	}
	return c.st.Rectifier.DCOutput(arr.RFPowerAt(nodePos)), nil
}

// RadiatedPowerAtAll returns the RF power observers at pts measure while
// the charger, docked for a session at nodePos, focuses its array on the
// node — what neighbor witnesses see during a genuine charge. The session
// array is steered once and evaluated at every probe point; the query
// does not disturb the charger's state, and reuses dst when it has the
// capacity.
func (c *Charger) RadiatedPowerAtAll(nodePos geom.Point, dst []float64, pts []geom.Point) ([]float64, error) {
	arr, err := c.steeredArray(nodePos)
	if err != nil {
		return nil, err
	}
	return arr.RFPowerAtAll(dst, pts), nil
}

// Reset returns the charger to its depot with a full budget, beginning a
// new tour. Position and array follow.
func (c *Charger) Reset() {
	c.probe.Add("charger.resets", 1)
	c.st.Pos = c.st.Depot
	c.st.SpentJ = 0
	c.st.Array.MoveTo(c.st.Depot)
	c.dropSteered()
}
