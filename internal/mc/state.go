package mc

import (
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

// State is the serializable form of a Charger and the state a Charger
// runs on: configuration, position, spent budget, the full array
// (including any steering applied), and the assumed rectifier. The array
// is held as itself: it is a plain value whose exported fields are its
// whole configuration. Telemetry probes and the steered-array memo are
// runtime-only and are not captured.
type State struct {
	Params    Params
	Pos       geom.Point
	Depot     geom.Point
	SpentJ    float64
	Array     wpt.Array
	Rectifier wpt.Rectifier
}

// State captures the charger's current state. The result is self-contained:
// mutating the charger afterwards does not alter it.
func (c *Charger) State() State {
	st := c.st
	st.Array = *c.st.Array.Clone()
	return st
}

// FromState reconstructs a charger from captured state. The restored
// charger carries the no-op telemetry probe; attach one with Instrument if
// needed. Probes never alter charger behavior, so a restored run replays
// identically regardless. A state no charger can reach — a non-finite or
// non-positive speed, any non-finite parameter, a non-finite position or
// depot, a non-finite or negative spent energy, an invalid array or
// rectifier — is refused, since the snapshot codec decodes "NaN" and
// "+Inf" and a restored run would otherwise carry them into its Outcome.
func FromState(st State) (*Charger, error) {
	if err := st.validate(); err != nil {
		return nil, fmt.Errorf("mc: invalid charger state: %w", err)
	}
	st.Array = *st.Array.Clone()
	return assemble(st), nil
}

// validate reports the first field of st that no charger can hold.
func (st *State) validate() error {
	p := st.Params
	switch {
	case !(p.SpeedMps > 0) || math.IsInf(p.SpeedMps, 1):
		return fmt.Errorf("SpeedMps %v is not positive and finite", p.SpeedMps)
	case !finite(p.MoveJPerM, p.RadiateW, p.BudgetJ, p.ServiceDist, p.ElementSpacing):
		return fmt.Errorf("non-finite Params %+v", p)
	case !finite(st.Pos.X, st.Pos.Y):
		return fmt.Errorf("non-finite Pos %v", st.Pos)
	case !finite(st.Depot.X, st.Depot.Y):
		return fmt.Errorf("non-finite Depot %v", st.Depot)
	case !(st.SpentJ >= 0) || math.IsInf(st.SpentJ, 1):
		return fmt.Errorf("SpentJ %v is not finite and non-negative", st.SpentJ)
	}
	if err := st.Array.Validate(); err != nil {
		return fmt.Errorf("array: %w", err)
	}
	if err := st.Rectifier.Validate(); err != nil {
		return fmt.Errorf("rectifier: %w", err)
	}
	return nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Fork returns an independent copy of the charger: the array is
// deep-cloned so steering one copy never disturbs the other, and the fork
// starts with the no-op probe and a cold steered-array memo. Fork performs
// only pure reads of the receiver, so a shared template charger may be
// forked concurrently as long as nothing mutates it.
func (c *Charger) Fork() *Charger {
	return assemble(c.State())
}

// Fleet returns a fleet of k chargers (at least one): c itself, then
// k-1 forks of it.
func (c *Charger) Fleet(k int) []*Charger {
	fleet := []*Charger{c}
	for len(fleet) < k {
		fleet = append(fleet, c.Fork())
	}
	return fleet
}
