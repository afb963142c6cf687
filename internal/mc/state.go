package mc

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/obs"
	"github.com/reprolab/wrsn-csa/internal/wpt"
)

// State is the serializable form of a Charger: configuration, position,
// spent budget, the full array (including any steering applied), and the
// assumed rectifier. The array is captured as itself: it is a plain
// value whose exported fields are its whole configuration. Telemetry
// probes and the steered-array memo are runtime-only and are not
// captured.
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
	return State{
		Params:    c.params,
		Pos:       c.pos,
		Depot:     c.depot,
		SpentJ:    c.spent,
		Array:     *c.array.Clone(),
		Rectifier: c.rect,
	}
}

// FromState reconstructs a charger from captured state. The restored
// charger carries the no-op telemetry probe; attach one with Instrument if
// needed. Probes never alter charger behavior, so a restored run replays
// identically regardless.
func FromState(st State) (*Charger, error) {
	arr := st.Array.Clone()
	if err := arr.Validate(); err != nil {
		return nil, fmt.Errorf("mc: restoring charger array: %w", err)
	}
	if err := st.Rectifier.Validate(); err != nil {
		return nil, fmt.Errorf("mc: restoring charger rectifier: %w", err)
	}
	return &Charger{
		params: st.Params,
		pos:    st.Pos,
		depot:  st.Depot,
		spent:  st.SpentJ,
		array:  arr,
		rect:   st.Rectifier,
		probe:  obs.Nop(),
	}, nil
}

// Fork returns an independent copy of the charger: the array is
// deep-cloned so steering one copy never disturbs the other, and the fork
// starts with the no-op probe and a cold steered-array memo. Fork performs
// only pure reads of the receiver, so a shared template charger may be
// forked concurrently as long as nothing mutates it.
func (c *Charger) Fork() *Charger {
	return &Charger{
		params: c.params,
		pos:    c.pos,
		depot:  c.depot,
		spent:  c.spent,
		array:  c.array.Clone(),
		rect:   c.rect,
		probe:  obs.Nop(),
	}
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
