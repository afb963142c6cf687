package attack

import (
	"math"
)

// routeState is the incremental feasibility oracle for insertion-heavy
// planning. A full Evaluate of a candidate route costs O(L); routeState
// answers "can site s be inserted at position p" in O(1) after an O(L)
// Recompute, using the classic time-window slack propagation: each stop
// caches how much extra delay it can absorb (waiting eats delay) before
// any downstream window breaks.
//
// Recompute reuses its arrays, which grow geometrically, so a pack that
// recomputes once per inserted stop allocates O(log L) times rather than
// once per round. Between Recomputes of a route that only gained stops,
// every old stop's arrival and finish can only move later and its slack
// can only shrink — the monotonicity that lets packCovers keep a
// rejected insertion rejected without re-checking it.
type routeState struct {
	in    *Instance
	route []int
	// Per-stop timing, aligned with route.
	arrive, begin, end []float64
	// slack[i] is the largest delay that can hit stop i's arrival without
	// violating window i or any later window.
	slack []float64
	// travelM and radiateJ are the route's current cost components.
	travelM  float64
	radiateJ float64
}

// newRouteState builds the oracle for the given route, which must be
// feasible with respect to windows (budget is checked per query).
func newRouteState(in *Instance) *routeState {
	return &routeState{in: in}
}

// Recompute refreshes all cached state for the route. It returns false if
// the route violates a window (the oracle is then unusable).
func (rs *routeState) Recompute(route []int) bool {
	rs.route = route
	n := len(route)
	rs.arrive = resize(rs.arrive, n)
	rs.begin = resize(rs.begin, n)
	rs.end = resize(rs.end, n)
	rs.slack = resize(rs.slack, n)
	rs.travelM, rs.radiateJ = 0, 0

	prev := -1 // depot
	t := rs.in.Start
	for i, idx := range route {
		s := &rs.in.Sites[idx]
		d := rs.in.dist(prev, idx)
		rs.travelM += d
		rs.radiateJ += s.Dur * rs.sitePower(idx)
		rs.arrive[i] = t + d/rs.in.SpeedMps
		rs.begin[i] = max(rs.arrive[i], s.Window.R)
		rs.end[i] = rs.begin[i] + s.Dur
		if rs.end[i] > s.Window.D {
			return false
		}
		prev = idx
		t = rs.end[i]
	}
	// Backward slack propagation: delay δ at stop i's arrival shifts its
	// begin by max(0, arrive+δ−begin)… conservatively, waiting absorbs
	// (begin−arrive) of any delay before it propagates.
	for i := n - 1; i >= 0; i-- {
		s := &rs.in.Sites[rs.route[i]]
		own := (s.Window.D - s.Dur) - rs.begin[i] // delay stop i itself tolerates
		down := math.Inf(1)
		if i+1 < n {
			down = rs.slack[i+1] + (rs.begin[i+1] - rs.arrive[i+1])
		}
		rs.slack[i] = min(own, down)
	}
	return true
}

func (rs *routeState) sitePower(idx int) float64 {
	if pw := rs.in.Sites[idx].PowerW; pw != 0 {
		return pw
	}
	return rs.in.RadiateW
}

// EnergyJ returns the current route's total energy.
func (rs *routeState) EnergyJ() float64 {
	return rs.travelM*rs.in.MoveJPerM + rs.radiateJ
}

// CheckInsert reports whether inserting site idx at position pos
// (0 ≤ pos ≤ len(route)) keeps every window and the budget satisfied, and
// if so returns the marginal energy cost. It runs in O(1). The cost
// depends only on the sites at pos-1 and pos (the edge the stop splits),
// not on the schedule.
func (rs *routeState) CheckInsert(pos, idx int) (float64, bool) {
	s := &rs.in.Sites[idx]
	from := -1 // depot
	prevEnd := rs.in.Start
	if pos > 0 {
		from = rs.route[pos-1]
		prevEnd = rs.end[pos-1]
	}
	dIn := rs.in.dist(from, idx)
	arrive := prevEnd + dIn/rs.in.SpeedMps
	begin := max(arrive, s.Window.R)
	end := begin + s.Dur
	if end > s.Window.D {
		return 0, false
	}
	var addTravel float64
	if pos < len(rs.route) {
		next := rs.route[pos]
		dOut := rs.in.dist(idx, next)
		oldLeg := rs.in.dist(from, next)
		addTravel = dIn + dOut - oldLeg
		// Delay imposed on the old stop at position pos, measured at its
		// arrival; its own waiting buffer absorbs delay before the begin
		// shifts, so the tolerance is slack (begin-relative) plus wait.
		newArriveNext := end + dOut/rs.in.SpeedMps
		delay := newArriveNext - rs.arrive[pos]
		wait := rs.begin[pos] - rs.arrive[pos]
		if delay > rs.slack[pos]+wait+1e-9 {
			return 0, false
		}
	} else {
		addTravel = dIn
	}
	addEnergy := addTravel*rs.in.MoveJPerM + s.Dur*rs.sitePower(idx)
	if rs.EnergyJ()+addEnergy > rs.in.BudgetJ {
		return 0, false
	}
	return addEnergy, true
}

// resize returns s with length n, doubling its capacity when it must
// grow.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, max(n, 2*cap(s)))
	}
	return s[:n]
}
