package wrsn

import (
	"fmt"
	"math"
)

// Depletion forecasting. Under the steady-state load model each node drains
// at a constant power, so request and death times are closed-form. The
// attack planner uses these forecasts to derive each key node's time
// window: the interval between "the node asks to be charged" and "the node
// dies", inside which a spoofed charging visit is both expected by the
// network and fatal to the node.

// DefaultRequestFraction is the battery fraction at which a node issues a
// charging request, the standard on-demand-charging trigger.
const DefaultRequestFraction = 0.30

// Forecast is a node's projected energy trajectory under current loads.
type Forecast struct {
	ID NodeID
	// DrainWatts is the projected constant drain.
	DrainWatts float64
	// RequestAt is the absolute time (seconds from now's origin) at which
	// the battery crosses the request threshold; 0 when already below,
	// +Inf when it never will (no drain).
	RequestAt float64
	// DeathAt is the absolute time at which the battery empties; +Inf when
	// it never will.
	DeathAt float64
}

// Window returns the charging window [RequestAt, DeathAt] length. A dead or
// drainless node reports 0.
func (f Forecast) Window() float64 {
	if math.IsInf(f.DeathAt, 1) {
		return 0
	}
	w := f.DeathAt - f.RequestAt
	if w < 0 {
		return 0
	}
	return w
}

// ForecastAt projects node id's trajectory starting at absolute time now,
// with requests issued at the given battery fraction. Fractions outside
// (0,1) get DefaultRequestFraction.
func (nw *Network) ForecastAt(id NodeID, now, requestFrac float64) (Forecast, error) {
	if !nw.Has(id) {
		return Forecast{}, fmt.Errorf("wrsn: forecast for node %d out of range", id)
	}
	if requestFrac <= 0 || requestFrac >= 1 {
		requestFrac = DefaultRequestFraction
	}
	drain := nw.DrainWatts(id)
	f := Forecast{ID: id, DrainWatts: drain}
	if !nw.live.get(int(id)) {
		f.RequestAt, f.DeathAt = now, now
		return f, nil
	}
	if drain <= 0 {
		f.RequestAt, f.DeathAt = math.Inf(1), math.Inf(1)
		return f, nil
	}
	nw.sync(int(id))
	level := nw.bats[id].Level()
	threshold := requestFrac * nw.bats[id].Capacity()
	if level <= threshold {
		f.RequestAt = now
	} else {
		f.RequestAt = now + (level-threshold)/drain
	}
	f.DeathAt = now + level/drain
	return f, nil
}
